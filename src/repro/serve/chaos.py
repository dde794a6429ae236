"""Crash-recovery differential harness: kill the service, prove nothing changed.

The acceptance bar of :mod:`repro.serve` is a *differential*: run a
suite of jobs cold (no interruptions) and record each result's content
signature; then run the same suite while crashing the service at a
journaled fault point, restart, let recovery resume, and assert every
accepted job reaches a terminal state with a signature **bit-identical**
to the cold run's.

Two harnesses, same differential:

* :func:`run_interrupt_differential` — in-process and fast.  Faults use
  the ``interrupt`` action (:class:`KeyboardInterrupt` passes through
  every ``except Exception`` boundary, exactly like a crash would skip
  them), the wounded service object is abandoned without cleanup, and a
  fresh :class:`~repro.serve.service.MappingService` on the same state
  directory replays.  This is what the test suite drives at every fault
  site.
* :func:`run_kill_differential` — subprocess-based and real.  The served
  instance runs ``python -m repro.serve`` with a ``REPRO_FAULT_PLAN``
  whose ``kill`` fault ``os._exit(43)``'s the process mid-operation
  (one-shot across restarts via the plan's ``state_dir`` markers); the
  harness restarts it until the suite drains.  This is the CI smoke job.

Both return a JSON-able report: per-job cold vs. recovered signatures,
restart counts, and the recovered journal's event log.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import time
import urllib.error
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.resilience import faultinject
from repro.resilience.faultinject import Fault, FaultPlan
from repro.serve.client import QueueFull, ServeClient, ServeError
from repro.serve.jobs import TERMINAL_STATES, JobSpec
from repro.serve.service import MappingService

#: The journaled crash windows the interrupt differential sweeps.
DEFAULT_SITES: Tuple[str, ...] = (
    "journal-append",
    "store-put",
    "worker-dispatch",
    "result-commit",
)


def demo_blif(n_gates: int = 40, seed: int = 1, name: str = "chaosdemo") -> str:
    """A small deterministic sequential benchmark as BLIF text.

    The repo ships no netlist files; the chaos harness and the CI smoke
    job need quick-but-real circuits with registered feedback loops, so
    this builds one from a seeded LCG (pure integer arithmetic — the
    same ``seed`` always yields the same netlist, hence the same
    content id in the store).
    """
    from repro.boolfn.truthtable import TruthTable
    from repro.netlist.blif import write_blif
    from repro.netlist.graph import SeqCircuit

    ops = [
        TruthTable.from_function(2, lambda a, b: a and b),
        TruthTable.from_function(2, lambda a, b: a or b),
        TruthTable.from_function(2, lambda a, b: a != b),
        TruthTable.from_function(2, lambda a, b: not (a and b)),
    ]
    state = seed & 0xFFFFFFFF

    def rand(bound: int) -> int:
        nonlocal state
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        return state % bound

    circuit = SeqCircuit(f"{name}{seed}")
    pool = [circuit.add_pi(f"x{i}") for i in range(4)]
    gates = []
    for i in range(n_gates):
        pins = [(pool[rand(len(pool))], 0), (pool[rand(len(pool))], 0)]
        gate = circuit.add_gate(f"g{i}", ops[rand(len(ops))], pins)
        pool.append(gate)
        gates.append(gate)
    # Registered feedback: rewire early gates' inputs to later gates
    # through 1-2 registers, creating genuine sequential loops.
    for _ in range(3):
        early = rand(len(gates) - 1)
        late = early + 1 + rand(len(gates) - early - 1)
        pins = [(p.src, p.weight) for p in circuit.fanins(gates[early])]
        pins[rand(2)] = (gates[late], 1 + rand(2))
        circuit.set_fanins(gates[early], pins)
    sinks = [g for g in gates if not circuit.fanouts(g)] or [gates[-1]]
    for j, gate in enumerate(sinks):
        circuit.add_po(f"out{j}", gate)
    circuit.check()
    return write_blif(circuit)


def _job_key(view: Dict[str, Any]) -> Tuple[str, str]:
    spec = view["spec"]
    return (spec["circuit_id"], spec["algorithm"])


# ----------------------------------------------------------------------
# in-process differential (interrupt faults)
# ----------------------------------------------------------------------
def _drain_inline(service: MappingService) -> None:
    """Run every queued job on this thread until none remain."""
    while True:
        queued = [
            view["id"] for view in service.jobs() if view["state"] == "queued"
        ]
        if not queued:
            return
        for job_id in queued:
            service.run_job_inline(job_id)


def cold_signatures_inline(
    state_dir: str,
    blifs: Sequence[str],
    algorithms: Sequence[str],
    **spec_fields: Any,
) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """Run the suite uninterrupted; return ``{(circuit, algo): summary}``."""
    service = MappingService(state_dir, max_queue=max(8, len(blifs) * len(algorithms)))
    try:
        for blif in blifs:
            circuit_id = service.store.put(blif)
            for algorithm in algorithms:
                service.submit(JobSpec(
                    circuit_id=circuit_id, algorithm=algorithm, **spec_fields
                ))
        _drain_inline(service)
        out: Dict[Tuple[str, str], Dict[str, Any]] = {}
        for view in service.jobs():
            if view["state"] != "done":
                raise RuntimeError(
                    f"cold run job {view['id']} ended {view['state']}: "
                    f"{view.get('error')}"
                )
            out[_job_key(view)] = view["result"]
        return out
    finally:
        service.stop(drain=False, timeout=1.0)


def run_interrupt_differential(
    state_root: str,
    blifs: Sequence[str],
    algorithms: Sequence[str] = ("turbomap",),
    sites: Sequence[str] = DEFAULT_SITES,
    at: int = 0,
    max_restarts: int = 25,
    **spec_fields: Any,
) -> Dict[str, Any]:
    """Sweep crash sites in-process; returns the differential report.

    For each site: install an ``interrupt`` fault (fires once), drive
    the suite inline, and every time the injected crash fires abandon
    the service object and recover a fresh one from the journal.  The
    report's ``"ok"`` is True iff every site's every completed job
    matched the cold signature.
    """
    cold = cold_signatures_inline(
        os.path.join(state_root, "cold"), blifs, algorithms, **spec_fields
    )
    expected = len(blifs) * len(algorithms)
    report: Dict[str, Any] = {"ok": True, "expected_jobs": expected, "sites": {}}
    for site in sites:
        site_dir = os.path.join(state_root, f"chaos-{site.replace('/', '_')}")
        faultinject.install(FaultPlan(faults=[
            Fault(site=site, action="interrupt", at=at, fires=1)
        ]))
        try:
            entry = _interrupt_round(
                site_dir, blifs, algorithms, cold, max_restarts, spec_fields
            )
        finally:
            faultinject.clear()
        report["sites"][site] = entry
        report["ok"] = report["ok"] and entry["ok"]
    return report


def _interrupt_round(
    state_dir: str,
    blifs: Sequence[str],
    algorithms: Sequence[str],
    cold: Dict[Tuple[str, str], Dict[str, Any]],
    max_restarts: int,
    spec_fields: Dict[str, Any],
) -> Dict[str, Any]:
    expected = len(blifs) * len(algorithms)
    crashes = 0
    service: Optional[MappingService] = None
    for _restart in range(max_restarts + 1):
        service = MappingService(
            state_dir, max_queue=max(8, expected)
        )
        try:
            # Top up: resubmit whatever was never accepted (a crash during
            # submit may or may not have journaled the accept record).
            have: Dict[Tuple[str, str], int] = {}
            for view in service.jobs():
                key = _job_key(view)
                have[key] = have.get(key, 0) + 1
            for blif in blifs:
                circuit_id = service.store.put(blif)
                for algorithm in algorithms:
                    if not have.get((circuit_id, algorithm)):
                        service.submit(JobSpec(
                            circuit_id=circuit_id, algorithm=algorithm,
                            **spec_fields,
                        ))
            _drain_inline(service)
        except KeyboardInterrupt:
            # The injected crash: abandon the instance exactly as a real
            # SIGKILL would — no terminal records, no cleanup, only the
            # journal survives.
            crashes += 1
            service._journal.close()
            continue
        break
    else:
        raise RuntimeError(f"{state_dir}: not drained after {max_restarts} restarts")
    assert service is not None
    views = service.jobs()
    service.stop(drain=False, timeout=1.0)
    mismatches = []
    for view in views:
        if view["state"] != "done":
            mismatches.append({"job": view["id"], "state": view["state"],
                               "error": view.get("error")})
            continue
        want = cold[_job_key(view)]["signature"]
        got = view["result"]["signature"]
        if want != got:
            mismatches.append({"job": view["id"], "cold": want, "got": got})
    replayed = sum(1 for view in views if view["attempts"] > 1) + sum(
        1 for view in views if view["probes_journaled"] > 0 and view["attempts"] == 1
    )
    return {
        "ok": not mismatches and len(views) >= expected and crashes > 0,
        "jobs": len(views),
        "crashes": crashes,
        "resumed_with_checkpoints": replayed,
        "mismatches": mismatches,
    }


# ----------------------------------------------------------------------
# subprocess differential (real SIGKILL via fault plan)
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(
    state_dir: str,
    port: int,
    env_extra: Optional[Dict[str, str]] = None,
    max_queue: int = 64,
) -> "subprocess.Popen[bytes]":
    """Spawn ``python -m repro.serve`` (stdout/err inherited)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env.update(env_extra or {})
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--state-dir", state_dir,
            "--host", "127.0.0.1",
            "--port", str(port),
            "--max-queue", str(max_queue),
        ],
        env=env,
    )


def wait_ready(client: ServeClient, process: "subprocess.Popen[bytes]",
               timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(
                f"server exited {process.returncode} before becoming ready"
            )
        try:
            client.healthz()
            return
        except (urllib.error.URLError, ConnectionError, ServeError):
            time.sleep(0.1)
    raise TimeoutError("server did not become ready")


def run_kill_differential(
    state_root: str,
    blif_paths: Sequence[str],
    algorithms: Sequence[str] = ("turbomap",),
    kill_site: str = "journal-append",
    kill_at: int = 3,
    max_restarts: int = 10,
    timeout: float = 300.0,
    **spec_fields: Any,
) -> Dict[str, Any]:
    """The CI smoke differential: real server processes, real SIGKILL.

    1. Cold: serve from ``state_root/cold``, run the suite, record
       signatures, stop.
    2. Chaos: serve from ``state_root/chaos`` under a ``kill`` fault
       plan; submit the same suite; every time the process dies with
       :data:`~repro.resilience.faultinject.KILL_EXIT_CODE`, restart it
       and let journal replay resume; repeat until every job is
       terminal.
    3. Assert every job is ``done`` with the cold run's signature.

    Returns the JSON-able report (``"ok"`` is the verdict); the chaos
    journal (the structured job-event log) is left on disk for upload.
    """
    blifs = []
    for path in blif_paths:
        with open(path, encoding="utf-8") as fh:
            blifs.append(fh.read())

    report: Dict[str, Any] = {
        "ok": False,
        "kill_site": kill_site,
        "kill_at": kill_at,
        "expected_jobs": len(blifs) * len(algorithms),
    }

    # -- phase 1: cold --------------------------------------------------
    cold_views = _run_suite_subprocess(
        os.path.join(state_root, "cold"), blifs, algorithms,
        env_extra={}, max_restarts=0, timeout=timeout, **spec_fields
    )
    cold: Dict[Tuple[str, str], str] = {}
    for view in cold_views["jobs"]:
        if view["state"] != "done":
            report["error"] = f"cold job {view['id']} ended {view['state']}"
            return report
        cold[_job_key(view)] = view["result"]["signature"]
    report["cold"] = {"jobs": len(cold_views["jobs"]),
                      "restarts": cold_views["restarts"]}

    # -- phase 2: chaos -------------------------------------------------
    chaos_dir = os.path.join(state_root, "chaos")
    plan = {
        "state_dir": os.path.join(state_root, "fault-state"),
        "faults": [
            {"site": kill_site, "action": "kill", "at": kill_at, "fires": 1}
        ],
    }
    chaos_views = _run_suite_subprocess(
        chaos_dir, blifs, algorithms,
        env_extra={"REPRO_FAULT_PLAN": json.dumps(plan)},
        max_restarts=max_restarts, timeout=timeout, **spec_fields
    )
    report["chaos"] = {"jobs": len(chaos_views["jobs"]),
                       "restarts": chaos_views["restarts"]}
    report["journal"] = os.path.join(chaos_dir, "journal.jsonl")

    mismatches = []
    for view in chaos_views["jobs"]:
        if view["state"] != "done":
            mismatches.append({"job": view["id"], "state": view["state"],
                               "error": view.get("error")})
            continue
        want = cold.get(_job_key(view))
        got = view["result"]["signature"]
        if want != got:
            mismatches.append({"job": view["id"], "cold": want, "got": got})
    report["mismatches"] = mismatches
    report["ok"] = (
        not mismatches
        and len(chaos_views["jobs"]) >= report["expected_jobs"]
        and chaos_views["restarts"] >= 1  # the kill actually fired
    )
    return report


def _run_suite_subprocess(
    state_dir: str,
    blifs: Sequence[str],
    algorithms: Sequence[str],
    env_extra: Dict[str, str],
    max_restarts: int,
    timeout: float,
    **spec_fields: Any,
) -> Dict[str, Any]:
    """Serve, submit, survive crashes, drain; returns views + restarts."""
    port = free_port()
    client = ServeClient(port=port, timeout=30.0)
    max_queue = max(64, 2 * len(blifs) * len(algorithms))
    process = start_server(state_dir, port, env_extra, max_queue=max_queue)
    restarts = 0
    deadline = time.monotonic() + timeout
    try:
        wait_ready(client, process)
        while True:
            if time.monotonic() > deadline:
                raise TimeoutError(f"suite not drained within {timeout}s")
            try:
                views = client.jobs()
                have: Dict[Tuple[str, str], int] = {}
                for view in views:
                    key = _job_key(view)
                    have[key] = have.get(key, 0) + 1
                for blif in blifs:
                    circuit_id = client.upload_circuit(blif)
                    for algorithm in algorithms:
                        if not have.get((circuit_id, algorithm)):
                            client.submit_with_backoff(
                                circuit_id=circuit_id, algorithm=algorithm,
                                **spec_fields,
                            )
                views = client.jobs()
                if views and all(
                    view["state"] in TERMINAL_STATES for view in views
                ):
                    return {"jobs": views, "restarts": restarts}
                time.sleep(0.2)
            except (
                urllib.error.URLError,
                ConnectionError,
                http.client.HTTPException,
                QueueFull,
            ):
                # Server gone (the kill fired; a kill mid-response leaves
                # a truncated body, IncompleteRead) or momentarily
                # shedding.
                if process.poll() is None:
                    time.sleep(0.2)
                    continue
                if restarts >= max_restarts:
                    raise RuntimeError(
                        f"server died (exit {process.returncode}) and the "
                        f"restart budget ({max_restarts}) is spent"
                    )
                restarts += 1
                process = start_server(
                    state_dir, port, env_extra, max_queue=max_queue
                )
                wait_ready(client, process)
    finally:
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10.0)
