"""Crash-only recovery: interrupt the service at its fault points,
restart from the same state directory, and prove the differential —
every job terminal, every result bit-identical to the cold run, and no
probe proved twice (the outcome cache is the probe checkpoint)."""

from collections import Counter

import pytest

from repro.core import driver
from repro.resilience import faultinject
from repro.resilience.faultinject import Fault, FaultPlan
from repro.serve.chaos import (
    DEFAULT_SITES,
    cold_signatures_inline,
    demo_blif,
    run_interrupt_differential,
)
from repro.serve.jobs import JobSpec
from repro.serve.service import MappingService

#: At K=4 both TurboSYN stages search several periods on this circuit:
#: the TurboMap bound probes phi 4, 2, 1 and the main search 2, 1.
MULTI_PROBE_BLIF = demo_blif(60, seed=5)


def _abandon(service):
    """Drop a wounded service the way a crash would: journal fh closed
    (the OS would do that), nothing else cleaned up, no terminal records."""
    service._journal.close()


@pytest.fixture()
def completed_probes(monkeypatch):
    """Probes run to completion while a fault plan is installed (the
    crashed and resumed attempts, not a cold baseline), counted by
    ``(circuit, resynthesize, phi)``."""
    done = Counter()
    probe_phi = driver.probe_phi

    def counting(circuit, k, phi, resynthesize, *args, **kwargs):
        outcome = probe_phi(circuit, k, phi, resynthesize, *args, **kwargs)
        if faultinject.active() is not None:
            done[(circuit.name, resynthesize, phi)] += 1
        return outcome

    monkeypatch.setattr(driver, "probe_phi", counting)
    return done


@pytest.mark.parametrize("site", DEFAULT_SITES)
def test_crash_at_site_recovers_bit_identical(tmp_path, quick_blif, site):
    report = run_interrupt_differential(
        str(tmp_path), [quick_blif], algorithms=("turbomap",),
        sites=(site,), k=4,
    )
    entry = report["sites"][site]
    assert report["ok"], entry
    assert entry["crashes"] >= 1
    assert entry["mismatches"] == []


def test_turbosyn_survives_a_mid_suite_crash(tmp_path, completed_probes):
    # Interrupt the fifth probe: the three bound probes and the first
    # main probe are in the outcome cache, the second main probe is in
    # flight.  The resumed job adopts the cached ones.
    report = run_interrupt_differential(
        str(tmp_path), [MULTI_PROBE_BLIF], algorithms=("turbosyn",),
        sites=("probe",), at=4, k=4,
    )
    entry = report["sites"]["probe"]
    assert report["ok"], entry
    assert entry["crashes"] == 1
    assert entry["resumed_with_checkpoints"] == 1
    assert completed_probes, "no probe ran under the fault plan"
    assert max(completed_probes.values()) == 1, completed_probes


def test_resumed_job_adopts_cached_probe_checkpoints(
    tmp_path, quick_blif, completed_probes
):
    cold = cold_signatures_inline(
        str(tmp_path / "cold"), [quick_blif], ("turbomap",), k=4
    )
    state = str(tmp_path / "state")
    service = MappingService(state)
    circuit_id = service.store.put(quick_blif)
    view = service.submit(JobSpec(
        circuit_id=circuit_id, algorithm="turbomap", k=4
    ))
    # Crash as the second probe starts: the first one's verdict was
    # written through to the outcome cache when it completed.
    faultinject.install(FaultPlan(faults=[
        Fault(site="probe", action="interrupt", at=1, fires=1)
    ]))
    try:
        with pytest.raises(KeyboardInterrupt):
            service.run_job_inline(view["id"])
        _abandon(service)

        recovered = MappingService(state)
        try:
            assert recovered.recovered["replayed_pending"] == [view["id"]]
            resumed = recovered.status(view["id"])
            assert resumed["state"] == "queued"
            assert resumed["attempts"] == 1  # the crashed attempt
            done = recovered.run_job_inline(view["id"])
            assert done["state"] == "done"
            assert done["attempts"] == 2
            stats = recovered.result(view["id"])["run"]["stats"]
        finally:
            recovered.stop(drain=False, timeout=1.0)
    finally:
        faultinject.clear()
    assert done["result"]["signature"] == cold[(circuit_id, "turbomap")][
        "signature"
    ]
    assert stats["cache_probes_skipped"] >= 1
    assert completed_probes, "no probe ran under the fault plan"
    assert max(completed_probes.values()) == 1, completed_probes


def test_torn_journal_tail_does_not_block_recovery(tmp_path, quick_blif):
    state = str(tmp_path / "state")
    service = MappingService(state)
    circuit_id = service.store.put(quick_blif)
    view = service.submit(JobSpec(
        circuit_id=circuit_id, algorithm="flowsyn-s", k=4
    ))
    _abandon(service)
    journal_path = service._journal.path
    with open(journal_path, "ab") as fh:
        fh.write(b'{"type": "done", "job": "j0')  # crash mid-append

    recovered = MappingService(state)
    try:
        # The torn line was dropped and truncated away on open (the
        # injected fragment is distinctive: real records have no spaces).
        with open(journal_path, "rb") as fh:
            assert b'"job": "j0' not in fh.read()
        # The accepted job survives and runs.
        assert recovered.status(view["id"])["state"] == "queued"
        done = recovered.run_job_inline(view["id"])
        assert done["state"] == "done"
    finally:
        recovered.stop(drain=False, timeout=1.0)


def test_cancel_request_survives_a_crash(tmp_path, quick_blif):
    state = str(tmp_path / "state")
    service = MappingService(state)
    circuit_id = service.store.put(quick_blif)
    view = service.submit(JobSpec(
        circuit_id=circuit_id, algorithm="turbomap", k=4
    ))
    service.cancel(view["id"])
    _abandon(service)

    recovered = MappingService(state)
    try:
        done = recovered.run_job_inline(view["id"])
        assert done["state"] == "cancelled"
    finally:
        recovered.stop(drain=False, timeout=1.0)


def test_finished_jobs_are_not_resurrected(tmp_path, quick_blif):
    state = str(tmp_path / "state")
    service = MappingService(state)
    view = service.submit_circuit(quick_blif, algorithm="flowsyn-s", k=4)
    done = service.run_job_inline(view["id"])
    _abandon(service)

    recovered = MappingService(state)
    try:
        assert recovered.recovered["replayed_pending"] == []
        replayed = recovered.status(view["id"])
        assert replayed["state"] == "done"
        assert replayed["result"]["signature"] == done["result"]["signature"]
    finally:
        recovered.stop(drain=False, timeout=1.0)


def test_compaction_preserves_the_job_table(tmp_path, quick_blif):
    state = str(tmp_path / "state")
    service = MappingService(state)
    view = service.submit_circuit(quick_blif, algorithm="flowsyn-s", k=4)
    done = service.run_job_inline(view["id"])
    pending = service.submit_circuit(quick_blif, algorithm="turbomap", k=4)
    _abandon(service)

    # A tiny threshold forces compaction on the next recovery.
    recovered = MappingService(state, compact_threshold=1)
    try:
        assert recovered.status(view["id"])["result"] == done["result"]
        assert recovered.status(pending["id"])["state"] == "queued"
        after = recovered.run_job_inline(pending["id"])
        assert after["state"] == "done"
    finally:
        recovered.stop(drain=False, timeout=1.0)
