"""Service outcome sidecar: warm jobs, journal notes, health, recovery."""

import json
import os

import pytest

from repro.serve.service import MappingService


@pytest.fixture()
def service(tmp_path):
    svc = MappingService(str(tmp_path / "state"))
    yield svc
    svc.stop(drain=False, timeout=1.0)


def run(service, blif, **kw):
    view = service.submit_circuit(blif, algorithm="turbomap", k=4, **kw)
    done = service.run_job_inline(view["id"])
    assert done["state"] == "done"
    return done


def journal_notes(state_dir):
    path = os.path.join(state_dir, "journal.jsonl")
    notes = []
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("type") == "note":
                notes.append(record)
    return notes


class TestWarmJobs:
    def test_repeat_job_serves_from_the_sidecar(self, service, quick_blif):
        first = run(service, quick_blif)
        second = run(service, quick_blif)
        # Same circuit, same config: identical answer, cached probes.
        assert second["result"]["signature"] == first["result"]["signature"]
        assert second["result"]["phi"] == first["result"]["phi"]
        notes = journal_notes(service.state_dir)
        assert notes, "warm job did not journal a cache-hit note"
        note = notes[-1]
        assert note["what"] == "cache-hit"
        assert note["hits"] > 0 and note["probes_skipped"] > 0

    def test_turbosyn_after_turbomap_journals_its_bound_hits(
        self, service, quick_blif
    ):
        # The TurboSYN job's main search is cold (its own cache key),
        # but its TurboMap bound adopts the first job's probes.
        run(service, quick_blif)
        view = service.submit_circuit(quick_blif, algorithm="turbosyn", k=4)
        assert service.run_job_inline(view["id"])["state"] == "done"
        notes = journal_notes(service.state_dir)
        assert [note["job"] for note in notes] == [view["id"]]
        assert notes[0]["hits"] > 0 and notes[0]["probes_skipped"] > 0

    def test_cold_job_journals_no_note(self, service, quick_blif):
        run(service, quick_blif)
        assert journal_notes(service.state_dir) == []

    def test_sidecar_lives_under_the_store(self, service, quick_blif):
        run(service, quick_blif)
        outcomes_dir = os.path.join(service.state_dir, "store", "outcomes")
        assert os.path.isdir(outcomes_dir)
        assert service.cache.stats()["entries"] >= 1


class TestHealth:
    def test_health_reports_outcome_stats(self, service, quick_blif):
        stats = service.health()["store"]["outcomes"]
        for field in ("entries", "bytes", "hits", "misses"):
            assert field in stats
        run(service, quick_blif)
        run(service, quick_blif)
        warm = service.health()["store"]["outcomes"]
        assert warm["entries"] >= 1
        assert warm["hits"] > 0


class TestRecovery:
    def test_notes_replay_as_no_ops(self, tmp_path, quick_blif):
        state = str(tmp_path / "state")
        svc = MappingService(state)
        try:
            run(svc, quick_blif)
            run(svc, quick_blif)  # journals a cache-hit note
        finally:
            svc.stop(drain=False, timeout=1.0)

        revived = MappingService(state)
        try:
            # Both jobs recover as done; the note neither creates a
            # phantom job nor disturbs the replayed terminal states.
            jobs = revived.jobs()
            assert len(jobs) == 2
            assert all(j["state"] == "done" for j in jobs)
        finally:
            revived.stop(drain=False, timeout=1.0)

    def test_sidecar_outlives_restart(self, tmp_path, quick_blif):
        state = str(tmp_path / "state")
        svc = MappingService(state)
        try:
            run(svc, quick_blif)
        finally:
            svc.stop(drain=False, timeout=1.0)

        revived = MappingService(state)
        try:
            done = run(revived, quick_blif)
            notes = journal_notes(revived.state_dir)
            assert notes and notes[-1]["what"] == "cache-hit"
            assert done["result"]["phi"] >= 1
        finally:
            revived.stop(drain=False, timeout=1.0)
