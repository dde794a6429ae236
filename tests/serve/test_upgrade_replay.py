"""Replaying journals written by older releases.

``fixtures/pre_collapse_journal.jsonl`` predates the removal of the
label engine selectors: every accept record carries ``engine``, ``flow``
and ``kernel``, and the service died with three jobs pending — a
default job (started), a ``max_copies: 0`` job the older validation let
through (started), and a job that asked for the old reference engine.
Replay drops the three retired fields (every value ran bit-identically),
recovers the invalid spec as a failed job, and keeps the service
healthy.

``fixtures/pre_cache_checkpoint_journal.jsonl`` predates the outcome
cache as the only probe checkpoint: the release that wrote it journaled
every probe (``probe``) and TurboSYN's bound (``bound``), and it died
with one TurboSYN job interrupted after its bound record and its first
main-stage probe record.  Replay ignores both record types; the job
runs again and reaches the cold signature.

Both fixtures also journal ``"workers": 1``, the probe process count of
the retired parallel phi search, and ``"warm_start": true``, the retired
probe-seeding switch; replay drops both like the engine selectors,
whatever their values.  A job that asked for ``"warm_start": false``
therefore runs the one seeding path and maps like a default job.

``fixtures/pre_blob_state/`` is a whole state directory from the
release whose store kept a compiled kernel blob (``<id>.csr``) beside
each canonical BLIF and journaled a ``note`` each time it rebuilt a
damaged one.  Three TurboMap jobs (K=4) were accepted; the first had
just healed a garbage blob when the service died, so its journal ends
on that note.  The blobs were left valid (the healed one), truncated
and garbage.  The store reads only the BLIFs now: every job replays
and maps exactly as in a fresh state directory.
"""

import json
import os
import shutil

from repro.bench import suite as bench_suite
from repro.netlist.blif import write_blif
from repro.serve.chaos import cold_signatures_inline, demo_blif
from repro.serve.jobs import DONE, FAILED, JobSpec
from repro.serve.service import MappingService

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "pre_collapse_journal.jsonl"
)
CHECKPOINT_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "pre_cache_checkpoint_journal.jsonl"
)
#: The circuit of the checkpoint fixture's TurboSYN job (K=4).
CHECKPOINT_BLIF = demo_blif(60, seed=5)
BLOB_STATE_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "pre_blob_state"
)


def _restored(tmp_path, quick_blif):
    state = tmp_path / "state"
    service = MappingService(str(state))
    circuit_id = service.store.put(quick_blif)
    service.stop()
    with open(FIXTURE, encoding="utf-8") as fh:
        first = json.loads(fh.readline())
    assert first["spec"]["circuit_id"] == circuit_id  # content address
    assert first["spec"]["workers"] == 1
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


def test_parallel_job_replays_on_the_sequential_search(tmp_path, quick_blif):
    """A job accepted with ``"workers": 4`` runs the one sequential
    search: the same phi, LUTs and signature as a job submitted now."""
    state = tmp_path / "state"
    service = MappingService(str(state))
    circuit_id = service.store.put(quick_blif)
    service.stop()
    with open(FIXTURE, encoding="utf-8") as fh:
        accept = json.loads(fh.readline())
    accept["spec"]["workers"] = 4
    (state / "journal.jsonl").write_text(json.dumps(accept) + "\n")
    service = MappingService(str(state))
    try:
        assert service.recovered["replayed_pending"] == ["j000001"]
        assert "workers" not in service.status("j000001")["spec"]
        old = service.run_job_inline("j000001")
        fresh = service.submit(JobSpec(circuit_id=circuit_id, k=4))
        new = service.run_job_inline(fresh["id"])
        assert old["state"] == new["state"] == DONE
        for field in ("phi", "luts", "signature"):
            assert old["result"][field] == new["result"][field]
    finally:
        service.stop()


def test_cold_start_job_replays_to_the_default_mapping(tmp_path):
    """s1 is where an unseeded TurboMap search ends on other labels
    (405 LUTs); a journaled ``"warm_start": false`` job must map like a
    default job in a fresh state directory (408 LUTs)."""
    blif = write_blif(bench_suite.build("s1"))
    state = tmp_path / "state"
    service = MappingService(str(state))
    circuit_id = service.store.put(blif)
    service.stop()
    spec = dict(JobSpec(circuit_id=circuit_id).to_dict(), warm_start=False)
    accept = {"type": "accept", "job": "j000001", "spec": spec, "seq": 1}
    (state / "journal.jsonl").write_text(json.dumps(accept) + "\n")
    service = MappingService(str(state))
    fresh = MappingService(str(tmp_path / "fresh"))
    try:
        assert service.recovered["replayed_pending"] == ["j000001"]
        old = service.run_job_inline("j000001")
        new = fresh.run_job_inline(fresh.submit_circuit(blif)["id"])
        assert old["state"] == new["state"] == DONE
        assert new["result"]["luts"] == 408
        for field in ("phi", "luts", "signature"):
            assert old["result"][field] == new["result"][field]
        assert "warm_start" not in service.status("j000001")["spec"]
    finally:
        service.stop()
        fresh.stop()


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


def _restored_checkpoints(tmp_path):
    state = tmp_path / "state"
    service = MappingService(str(state))
    circuit_id = service.store.put(CHECKPOINT_BLIF)
    service.stop()
    with open(CHECKPOINT_FIXTURE, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert records[0]["spec"]["circuit_id"] == circuit_id
    assert records[0]["spec"]["workers"] == 1
    assert [r["type"] for r in records].count("bound") == 1
    assert records[-1]["type"] == "probe"
    assert records[-1]["stage"] == "main"
    shutil.copy(CHECKPOINT_FIXTURE, state / "journal.jsonl")
    return str(state), circuit_id


def test_interrupted_turbosyn_job_replays_to_the_cold_signature(tmp_path):
    state, circuit_id = _restored_checkpoints(tmp_path)
    cold = cold_signatures_inline(
        str(tmp_path / "cold"), [CHECKPOINT_BLIF], ("turbosyn",), k=4
    )
    service = MappingService(state)
    try:
        assert service.recovered["replayed_pending"] == ["j000001"]
        view = service.status("j000001")
        assert view["state"] == "queued"
        assert view["attempts"] == 1
        assert service.health()["status"] == "ok"
        done = service.run_job_inline("j000001")
        assert done["state"] == DONE
        assert done["result"]["signature"] == (
            cold[(circuit_id, "turbosyn")]["signature"]
        )
        assert service.health()["status"] == "ok"
    finally:
        service.stop()


def test_compaction_drops_the_retired_record_types(tmp_path):
    state, _ = _restored_checkpoints(tmp_path)
    # A tiny threshold compacts the journal on recovery.
    MappingService(state, compact_threshold=1).stop()
    with open(os.path.join(state, "journal.jsonl"), encoding="utf-8") as fh:
        kinds = [json.loads(line)["type"] for line in fh]
    assert kinds == ["compact", "accept"]
    again = MappingService(state)
    try:
        assert again.recovered["replayed_pending"] == ["j000001"]
        assert again.run_job_inline("j000001")["state"] == DONE
    finally:
        again.stop()


def _mapped(artifact):
    run = artifact["run"]
    return run["phi"], run["luts"], artifact["labels"], artifact["mapped_blif"]


def test_state_with_kernel_blobs_replays_like_a_fresh_one(tmp_path):
    state = tmp_path / "state"
    shutil.copytree(BLOB_STATE_FIXTURE, state)
    store_dir = state / "store"
    blobs = {
        name: (store_dir / name).read_bytes()
        for name in sorted(os.listdir(store_dir))
        if name.endswith(".csr")
    }
    ids = sorted(name[: -len(".csr")] for name in blobs)
    with open(state / "journal.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert records[-1]["type"] == "note"
    assert records[-1]["what"] == "store-heal"
    assert len(blobs) == 3

    service = MappingService(str(state))
    fresh = MappingService(str(tmp_path / "fresh"))
    try:
        assert service.recovered["records"] == len(records)
        assert service.recovered["replayed_pending"] == [
            "j000001", "j000002", "j000003"
        ]
        assert service.store.circuit_ids() == ids
        for job_id in ("j000001", "j000002", "j000003"):
            spec = service.status(job_id)["spec"]
            assert service.run_job_inline(job_id)["state"] == DONE
            with open(
                store_dir / f"{spec['circuit_id']}.blif", encoding="utf-8"
            ) as fh:
                view = fresh.submit_circuit(fh.read(), algorithm="turbomap", k=4)
            assert fresh.run_job_inline(view["id"])["state"] == DONE
            assert _mapped(service.result(job_id)) == _mapped(
                fresh.result(view["id"])
            )
        assert service.health()["status"] == "ok"
        # The old blobs are left exactly as they were.
        for name, data in blobs.items():
            assert (store_dir / name).read_bytes() == data
    finally:
        service.stop()
        fresh.stop()
