"""Replaying a journal written before the label engine selectors left.

``fixtures/pre_collapse_journal.jsonl`` is a journal in the older
format: every accept record carries ``engine``, ``flow`` and ``kernel``,
and the service died with three jobs pending — a default job (started),
a ``max_copies: 0`` job the older validation let through (started), and
a job that asked for the old reference engine.  Replay drops the three
retired fields (every value ran bit-identically), recovers the invalid
spec as a failed job, and keeps the service healthy.
"""

import json
import os
import shutil

from repro.serve.jobs import DONE, FAILED, JobSpec
from repro.serve.service import MappingService

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "pre_collapse_journal.jsonl"
)


def _restored(tmp_path, quick_blif):
    state = tmp_path / "state"
    service = MappingService(str(state))
    circuit_id = service.store.put(quick_blif)
    service.stop()
    with open(FIXTURE, encoding="utf-8") as fh:
        first = json.loads(fh.readline())
    assert first["spec"]["circuit_id"] == circuit_id  # content address
    shutil.copy(FIXTURE, state / "journal.jsonl")
    return MappingService(str(state)), circuit_id


def test_pending_jobs_replay_across_the_upgrade(tmp_path, quick_blif):
    service, circuit_id = _restored(tmp_path, quick_blif)
    assert service.recovered["replayed_pending"] == ["j000001", "j000003"]
    assert service.health()["status"] == "ok"

    bad = service.status("j000002")
    assert bad["state"] == FAILED
    assert bad["error"]["reason"] == "invalid_spec"
    assert "max_copies" in bad["error"]["message"]

    for job_id in ("j000001", "j000003"):
        want = JobSpec(circuit_id=circuit_id, k=4).to_dict()
        assert service.status(job_id)["spec"] == want
        assert service.run_job_inline(job_id)["state"] == DONE
    fresh = service.submit(JobSpec(circuit_id=circuit_id, k=4))
    assert service.run_job_inline(fresh["id"])["state"] == DONE
    signatures = {
        service.result(job_id)["signature"]
        for job_id in ("j000001", "j000003", fresh["id"])
    }
    assert len(signatures) == 1
    assert service.status("j000002")["state"] == FAILED
    assert service.health()["status"] == "ok"
    service.stop()


def test_failed_replay_survives_compaction_and_restart(tmp_path, quick_blif):
    service, _ = _restored(tmp_path, quick_blif)
    service._journal.compact(service._live_records())
    service.stop()
    again = MappingService(service.state_dir)
    bad = again.status("j000002")
    assert bad["state"] == FAILED
    assert bad["spec"]["max_copies"] == 0
    assert again.report()["errors"][0]["job"] == "j000002"
    again.stop()
