"""The crash-only mapping service: journal + store + scheduler + jobs.

:class:`MappingService` is the same-process heart of ``repro.serve``:
the HTTP front end (:mod:`repro.serve.server`) and the CLI are thin
wrappers over it, and tests drive it directly.

The crash-only contract
-----------------------

Every externally visible transition is **journaled before it is acted
on** (:mod:`repro.serve.journal`).  The record vocabulary:

======================  ================================================
``accept``              job admitted (spec attached) — written *before*
                        the submitter is acknowledged
``start``               a worker lane picked the job up
``note``                observability breadcrumb (cache hits);
                        replayed as a no-op
``cancel-request``      a client asked to cancel (honored at the next
                        probe boundary, surviving crashes)
``done`` / ``fail`` / ``cancelled``
                        terminal outcome (summary / structured error)
======================  ================================================

The journal holds the job lifecycle only.  Probe verdicts are durable
in one place, the outcome cache (:mod:`repro.cache`): every search a
job runs writes each fresh probe through to it as the probe completes.
``probe`` and ``bound`` records written by older releases replay as
no-ops.  So does every ``note``, whatever it names: releases that kept
compiled kernels beside the circuits journaled a note each time they
rebuilt a damaged one.

``kill -9`` at any instant therefore loses nothing that was
acknowledged: :meth:`recover` replays the journal, rebuilds the job
table, and re-enqueues every non-terminal job.  The resumed search
adopts every cached verdict verbatim, and feasibility is monotone in
phi, so the resumed job produces phi, labels, certificates and mapped
netlists **bit-identical** to an uninterrupted run — it just skips the
probes its crashed attempt already finished.

Crash-only also means: a :class:`~repro.serve.journal.JournalError` is
*fatal*.  The service must never act on a transition it failed to
journal, so the lane stops, the service flips unhealthy, and a
supervisor restart replays.

Admission control and degradation
---------------------------------

* Bounded intake: more than ``max_queue`` non-terminal jobs →
  :class:`AdmissionRejected` with a Retry-After estimate from the EWMA
  of recent job durations.  Rejection is immediate and structured —
  the service sheds load, it never hangs.
* Deadline pressure: per-job :class:`~repro.serve.jobs.JobBudget`
  quotas make overrunning jobs degrade to the best-known phi with a
  ``degraded_reason``, exactly like the offline mappers.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Union

from repro.cache.store import OutcomeCache
from repro.core.flowsyn_s import flowsyn_s
from repro.core.turbomap import turbomap
from repro.core.turbosyn import turbosyn
from repro.netlist.blif import write_blif
from repro.netlist.graph import SeqCircuit
from repro.perf.report import mapper_run
from repro.resilience.atomic import atomic_write_json
from repro.resilience.budget import BudgetExhausted
from repro.resilience.faultinject import fault_point
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING_STATES,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobBudget,
    JobSpec,
    ServiceStats,
    retry_after_estimate,
)
from repro.serve.journal import Journal, JournalError, Record
from repro.serve.scheduler import Scheduler
from repro.serve.store import CircuitStore

#: Record types replay skips: observability notes, and the per-probe
#: checkpoints older releases journaled (the outcome cache holds those
#: verdicts now).
_REPLAY_NO_OPS = ("note", "probe", "bound")


class AdmissionRejected(RuntimeError):
    """The intake queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, pending: int, max_queue: int, retry_after: float) -> None:
        super().__init__(
            f"queue full ({pending}/{max_queue} jobs pending); "
            f"retry after {retry_after:.1f}s"
        )
        self.pending = pending
        self.max_queue = max_queue
        self.retry_after = retry_after

    def to_dict(self) -> Dict[str, Any]:
        return {
            "error": "queue_full",
            "pending": self.pending,
            "max_queue": self.max_queue,
            "retry_after": self.retry_after,
        }


def artifact_signature(artifact: Dict[str, Any]) -> str:
    """Stable content signature of a result artifact.

    Covers everything semantically meaningful — phi, LUT count, labels,
    the mapped netlist text, degradation status, and the certificate
    minus its wall-clock field — so two runs are bit-identical exactly
    when their signatures match, crash-resumed or not.
    """
    run = artifact.get("run", {})
    cert = dict(run.get("certificate") or {})
    cert.pop("t_verify", None)
    payload = {
        "phi": run.get("phi"),
        "luts": run.get("luts"),
        "degraded": run.get("degraded"),
        "degraded_reason": run.get("degraded_reason"),
        "labels": artifact.get("labels"),
        "mapped_blif": artifact.get("mapped_blif"),
        "certificate": cert,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class MappingService:
    """The mapping service: accepts jobs, survives ``kill -9``.

    ``state_dir`` holds everything durable::

        state_dir/
          journal.jsonl   # the write-ahead job journal
          store/          # content-addressed canonical circuits (BLIF)
          results/        # one JSON artifact per finished job

    Construction replays the journal (:meth:`recover`) but does not
    start lanes; call :meth:`start` to begin executing, or drive
    :meth:`run_job_inline` from tests.  ``budget_factory`` is a test
    hook mapping a :class:`JobSpec` to the :class:`JobBudget` used for
    its run (clock injection, tiny deadlines).
    """

    def __init__(
        self,
        state_dir: str,
        max_active: int = 1,
        max_queue: int = 8,
        budget_factory: Optional[Callable[[JobSpec], JobBudget]] = None,
        compact_threshold: int = 4096,
    ) -> None:
        self.state_dir = os.fspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        os.makedirs(os.path.join(self.state_dir, "results"), exist_ok=True)
        self.store = CircuitStore(os.path.join(self.state_dir, "store"))
        # Outcome sidecar: persistent probe verdicts/labels keyed by the
        # store's content ids, so repeat jobs for a known circuit return
        # in O(verify) instead of re-searching (see repro.cache).
        self.cache = OutcomeCache(
            os.path.join(self.state_dir, "store", "outcomes")
        )
        self.max_queue = max_queue
        self.stats = ServiceStats()
        self._budget_factory = budget_factory or self._default_budget
        self._compact_threshold = compact_threshold
        self._lock = threading.RLock()
        self._terminal = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._budgets: Dict[str, JobBudget] = {}
        self._accepting = True
        self._fatal: Optional[str] = None
        self._t_started = time.monotonic()
        self.scheduler = Scheduler(self._run_job, max_active=max_active)
        self.recovered: Dict[str, Any] = {}
        self._journal = self._recover()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _recover(self) -> Journal:
        """Replay the journal into the job table; re-enqueue pending jobs."""
        t0 = time.perf_counter()
        journal, records = Journal.open(
            os.path.join(self.state_dir, "journal.jsonl")
        )
        for record in records:
            self._replay(record)
        pending = [
            job
            for job in self._jobs.values()
            if job.state in PENDING_STATES or (
                job.cancel_requested and job.state not in TERMINAL_STATES
            )
        ]
        pending.sort(key=lambda job: job.seq)  # admission order survives
        for job in pending:
            job.state = QUEUED  # a crashed "running" job restarts
        self.recovered = {
            "records": len(records),
            "jobs": len(self._jobs),
            "replayed_pending": [job.id for job in pending],
            "seconds": round(time.perf_counter() - t0, 6),
        }
        if pending:
            self.stats.bump("replayed", len(pending))
        # Compact once the journal outgrows its live content; crash-safe
        # (atomic replace) and seq-preserving.
        if len(records) > self._compact_threshold:
            journal.compact(self._live_records())
        # Re-enqueue after the journal is ready: lanes may start running
        # these the moment start() is called.
        for job in pending:
            self.scheduler.enqueue(job.id)
        return journal

    def _replay(self, record: Record) -> None:
        """Apply one journal record to the in-memory job table."""
        kind = record.get("type")
        job_id = record.get("job")
        if kind == "accept":
            seq = int(record["seq"])
            try:
                spec = JobSpec.from_journal(record["spec"])
            except (ValueError, TypeError) as exc:
                # Accepted by an older release under looser validation:
                # the job fails here instead of stopping the service.
                self._jobs[job_id] = Job(
                    id=job_id, seq=seq, spec=dict(record["spec"]),
                    state=FAILED, terminal_seq=seq,
                    error={"error": type(exc).__name__, "message": str(exc),
                           "reason": "invalid_spec"},
                )
                return
            self._jobs[job_id] = Job(id=job_id, seq=seq, spec=spec)
            return
        job = self._jobs.get(job_id)
        if job is None or kind in _REPLAY_NO_OPS:
            return
        if job.state in TERMINAL_STATES:
            return  # terminal states are absorbing
        seq = int(record.get("seq", 0))
        if kind == "start":
            job.state = RUNNING
            job.attempts += 1
        elif kind == "cancel-request":
            job.cancel_requested = True
            job.cancel_seq = seq
        elif kind == "done":
            job.state = DONE
            job.result = record.get("summary")
            job.terminal_seq = seq
        elif kind == "fail":
            job.state = FAILED
            job.error = record.get("error")
            job.terminal_seq = seq
        elif kind == "cancelled":
            job.state = CANCELLED
            job.result = record.get("summary")
            job.terminal_seq = seq

    def _live_records(self) -> List[Record]:
        """Minimal records reproducing the current job table (compaction).

        Every record keeps its *original* journal seq (the fallback to
        the accept seq only covers pre-upgrade journals), so the
        compacted journal never invents duplicate seqs and replaying it
        recomputes the true high-water mark.
        """
        records: List[Record] = []
        for job in sorted(self._jobs.values(), key=lambda j: j.seq):
            records.append(
                {"type": "accept", "job": job.id, "spec": job.spec_dict(),
                 "seq": job.seq}
            )
            if job.state in TERMINAL_STATES:
                terminal_seq = job.terminal_seq or job.seq
                if job.state == DONE:
                    records.append(
                        {"type": "done", "job": job.id,
                         "summary": job.result, "seq": terminal_seq}
                    )
                elif job.state == FAILED:
                    records.append(
                        {"type": "fail", "job": job.id,
                         "error": job.error, "seq": terminal_seq}
                    )
                else:
                    records.append(
                        {"type": "cancelled", "job": job.id,
                         "summary": job.result, "seq": terminal_seq}
                    )
                continue
            if job.cancel_requested:
                records.append(
                    {"type": "cancel-request", "job": job.id,
                     "seq": job.cancel_seq or job.seq}
                )
        return records

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.scheduler.start()

    def stop(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Stop accepting and wind lanes down.

        ``drain=True`` lets queued jobs finish; ``drain=False`` cancels
        every pending job first (their cancellation is journaled, so a
        later restart does not resurrect them).
        """
        with self._lock:
            self._accepting = False
            pending = [
                job.id
                for job in self._jobs.values()
                if job.state in PENDING_STATES
            ]
        if not drain:
            for job_id in pending:
                try:
                    self.cancel(job_id)
                except JournalError:
                    break  # shutting down anyway; journal is sacred
        self.scheduler.stop(timeout=timeout)
        self._journal.close()

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def submit_circuit(
        self, circuit_or_text: Union[SeqCircuit, str], **spec_fields: Any
    ) -> Dict[str, Any]:
        """Store a circuit (dedup by content) and submit a job over it."""
        circuit_id = self.store.put(circuit_or_text)
        return self.submit(JobSpec(circuit_id=circuit_id, **spec_fields))

    def submit(self, spec: JobSpec) -> Dict[str, Any]:
        """Admit one job: WAL ``accept`` *then* acknowledge.

        Raises :class:`AdmissionRejected` (structured, immediate) when
        the pending count is at ``max_queue``, and ``RuntimeError`` when
        the service is draining or fatally wounded.
        """
        if not self.store.contains(spec.circuit_id):
            raise ValueError(f"unknown circuit id {spec.circuit_id!r}")
        with self._lock:
            if self._fatal is not None:
                raise RuntimeError(
                    f"service is unhealthy (journal failure: {self._fatal})"
                )
            if not self._accepting:
                raise RuntimeError("service is draining; not accepting jobs")
            pending = sum(
                1 for job in self._jobs.values()
                if job.state in PENDING_STATES
            )
            if pending >= self.max_queue:
                self.stats.bump("rejected")
                raise AdmissionRejected(
                    pending,
                    self.max_queue,
                    retry_after_estimate(
                        pending, self.stats.snapshot()["avg_job_seconds"]
                    ),
                )
            job_id = f"j{self._journal.seq + 1:06d}"
            seq = self._journal.append(
                {"type": "accept", "job": job_id, "spec": spec.to_dict()}
            )
            job = Job(id=job_id, seq=seq, spec=spec)
            self._jobs[job_id] = job
            self.stats.bump("submitted")
        self.scheduler.enqueue(job_id)
        return job.view()

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Journal a cancel request; cooperative, honored across crashes."""
        with self._lock:
            job = self._require(job_id)
            if job.state in TERMINAL_STATES:
                return job.view()
            job.cancel_seq = self._journal.append(
                {"type": "cancel-request", "job": job_id}
            )
            job.cancel_requested = True
            budget = self._budgets.get(job_id)
        if budget is not None:
            budget.cancel()
        return job.view()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _require(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job id {job_id!r}")
        return job

    def status(self, job_id: str) -> Dict[str, Any]:
        with self._lock:
            return self._require(job_id).view()

    def jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                job.view()
                for job in sorted(self._jobs.values(), key=lambda j: j.seq)
            ]

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.state_dir, "results", f"{job_id}.json")

    def result(self, job_id: str) -> Dict[str, Any]:
        """The full result artifact of a finished job."""
        job = self._require(job_id)
        if job.state not in TERMINAL_STATES:
            raise ValueError(f"job {job_id} is still {job.state}")
        if job.result is None:
            raise ValueError(f"job {job_id} {job.state}: {job.error}")
        path = self.result_path(job_id)
        # A job cancelled before it ran has a summary but no artifact
        # (e.g. reason=cancelled_queued): a structured error, not a
        # FileNotFoundError-turned-500.
        if "artifact" not in job.result or not os.path.exists(path):
            raise ValueError(
                f"job {job_id} {job.state} without a result artifact "
                f"(reason: {job.result.get('reason', 'unknown')})"
            )
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until ``job_id`` reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._terminal:
            while self._require(job_id).state not in TERMINAL_STATES:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still "
                        f"{self._require(job_id).state} after {timeout}s"
                    )
                self._terminal.wait(timeout=remaining)
            return self._require(job_id).view()

    def report(self) -> Dict[str, Any]:
        """A :mod:`repro.perf.report` suite report over every finished job.

        Each run carries its ``job`` envelope (id, attempts, signature)
        and the report carries the ``service`` envelope
        (the :meth:`health` snapshot), so the offline tooling
        (:mod:`repro.perf.check`) can gate served sweeps exactly like
        batch ones.
        """
        from repro.perf.report import error_entry, suite_report

        runs: List[Dict[str, Any]] = []
        errors: List[Dict[str, Any]] = []
        for view in self.jobs():
            if view["state"] == DONE:
                with open(
                    self.result_path(view["id"]), encoding="utf-8"
                ) as fh:
                    runs.append(json.load(fh)["run"])
            elif view["state"] == FAILED:
                error = view.get("error") or {}
                errors.append(
                    error_entry(
                        str(view["spec"].get("circuit_id"))[:12],
                        str(view["spec"].get("algorithm")),
                        RuntimeError(error.get("message", "unknown")),
                        stage="serve",
                    )
                )
                errors[-1]["error"] = error.get("error", "RuntimeError")
                errors[-1]["job"] = view["id"]
        return suite_report(runs, errors=errors, service=self.health())

    def journal_events(self) -> List[Record]:
        """The structured job-event log: every journal record, parsed.

        This is the observability feed (``GET /events``, the CI chaos
        artifact): one JSON object per transition, in WAL order.  A torn
        tail (crash mid-append) ends the list at the last complete
        record, mirroring what recovery would trust.
        """
        events: List[Record] = []
        try:
            with open(self._journal.path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        events.append(json.loads(line))
                    except ValueError:
                        break
        except OSError:
            pass
        return events

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` body: liveness + structured observability."""
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "status": "fatal" if self._fatal is not None else "ok",
                "fatal": self._fatal,
                "uptime_seconds": round(
                    time.monotonic() - self._t_started, 3
                ),
                "accepting": self._accepting,
                "jobs": states,
                "stats": self.stats.snapshot(),
                "journal": {
                    "seq": self._journal.seq,
                    "bytes": self._journal.size_bytes(),
                },
                "store": {
                    "circuits": len(self.store.circuit_ids()),
                    "outcomes": self.cache.stats(),
                },
                "recovered": self.recovered,
            }

    def ready(self) -> Dict[str, Any]:
        """The ``/readyz`` body: can this instance take one more job?"""
        with self._lock:
            pending = sum(
                1 for job in self._jobs.values()
                if job.state in PENDING_STATES
            )
            ok = (
                self._fatal is None
                and self._accepting
                and pending < self.max_queue
            )
            return {
                "ready": ok,
                "pending": pending,
                "max_queue": self.max_queue,
            }

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @staticmethod
    def _default_budget(spec: JobSpec) -> JobBudget:
        return JobBudget(
            deadline=spec.deadline, probe_timeout=spec.probe_timeout
        )

    def run_job_inline(self, job_id: str) -> Dict[str, Any]:
        """Execute one queued job on the caller's thread (test harness)."""
        self._run_job(job_id)
        return self.status(job_id)

    def _run_job(self, job_id: str) -> None:
        """One lane executing one job end to end (the scheduler runner)."""
        job = self._jobs[job_id]
        with self._lock:
            if job.state != QUEUED:
                # Terminal, or already claimed by another lane (a
                # duplicate enqueue after recovery): exactly one lane
                # may flip queued→running, and it happens under the
                # lock so a racing lane can never pass this guard.
                return
            if job.cancel_requested:
                # Cancelled while queued (possibly in a previous life).
                self._finish(
                    job, CANCELLED, summary={"reason": "cancelled_queued"}
                )
                return
            job.state = RUNNING  # claimed; other lanes bounce off above
        try:
            # Crash window: journaled as picked-up, nothing acted on yet.
            fault_point(
                "worker-dispatch", tag=f"{job_id}:{job.spec.circuit_id[:12]}"
            )
            with self._lock:
                self._journal.append({"type": "start", "job": job_id})
                job.attempts += 1
            self._execute(job)
        except JournalError as exc:
            # Crash-only: an unjournalable service must stop, not guess.
            with self._lock:
                self._fatal = str(exc)
                self._accepting = False
            raise
        except BudgetExhausted as exc:
            budget = self._budgets.get(job_id)
            cancelled = budget is not None and budget.cancelled
            self._finish(
                job,
                CANCELLED if cancelled else FAILED,
                summary={"reason": "cancelled"} if cancelled else None,
                error=None if cancelled else {
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "reason": "budget_exhausted",
                },
            )
        except Exception as exc:  # noqa: BLE001 — the job fault boundary
            self._finish(
                job,
                FAILED,
                error={"error": type(exc).__name__, "message": str(exc)},
            )
        finally:
            self._budgets.pop(job_id, None)

    def _execute(self, job: Job) -> None:
        """Load, dispatch, commit — the happy path."""
        spec = job.spec
        t0 = time.perf_counter()
        circuit = self.store.load(spec.circuit_id)
        budget = self._budget_factory(spec)
        with self._lock:
            self._budgets[job.id] = budget
            if job.cancel_requested:
                budget.cancel()

        result = self._dispatch(spec, circuit, budget)
        stats = result.total_stats
        if result.bound_stats is not None:
            # A TurboSYN bound run adopts cached TurboMap probes too.
            stats.merge(result.bound_stats)
        if stats.outcome_cache_hits or stats.cache_probes_skipped:
            # Saved work is an *event* worth a breadcrumb; replayed as
            # a no-op.
            self._journal.append(
                {"type": "note", "job": job.id, "what": "cache-hit",
                 "hits": stats.outcome_cache_hits,
                 "probes_skipped": stats.cache_probes_skipped,
                 "seeds": stats.cache_seeds}
            )
        seconds = time.perf_counter() - t0
        job_envelope = {"id": job.id, "attempts": job.attempts}
        artifact = {
            "job": job.id,
            "circuit_id": spec.circuit_id,
            "spec": spec.to_dict(),
            "run": mapper_run(
                result, circuit=circuit, seconds=seconds, job=job_envelope
            ),
            "labels": list(result.labels),
            "mapped_blif": write_blif(result.mapped),
        }
        artifact["signature"] = artifact_signature(artifact)
        artifact["run"]["job"]["signature"] = artifact["signature"]
        atomic_write_json(self.result_path(job.id), artifact, indent=2)
        # Crash window: artifact durable, terminal record not yet written
        # — recovery re-runs the job and rewrites it bit-identically.
        fault_point("result-commit", tag=job.id)
        summary = {
            "phi": result.phi,
            "luts": result.n_luts,
            "degraded": result.degraded,
            "degraded_reason": result.degraded_reason,
            "seconds": round(seconds, 6),
            "signature": artifact["signature"],
            "artifact": self.result_path(job.id),
        }
        if budget.cancelled:
            self._finish(job, CANCELLED, summary=summary)
        else:
            self._finish(job, DONE, summary=summary)
            self.stats.observe_duration(seconds)

    def _dispatch(self, spec, circuit, budget):
        """Run the job's algorithm against the service's outcome cache.

        The cache is the job's probe checkpoint: a resumed job adopts
        every verdict its crashed attempt finished.  TurboSYN runs its
        TurboMap bound under the TurboMap key of the same cache and
        skips it when a verified final is cached, exactly as offline.
        """
        if spec.algorithm == "flowsyn-s":
            # One-shot structural algorithm: no phi search to checkpoint.
            return flowsyn_s(circuit, spec.k, check=spec.check)
        mapper = turbomap if spec.algorithm == "turbomap" else turbosyn
        return mapper(
            circuit,
            spec.k,
            check=spec.check,
            budget=budget,
            max_copies=spec.max_copies,
            cache=self.cache,
        )

    def _finish(
        self,
        job: Job,
        state: str,
        summary: Optional[Dict[str, Any]] = None,
        error: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Journal the terminal record, then flip the in-memory state."""
        record: Record = {"type": "", "job": job.id}
        if state == DONE:
            record["type"] = "done"
            record["summary"] = summary
        elif state == CANCELLED:
            record["type"] = "cancelled"
            if summary is not None:
                record["summary"] = summary
        else:
            record["type"] = "fail"
            record["error"] = error
        with self._lock:
            job.terminal_seq = self._journal.append(record)
            job.state = state
            job.result = summary
            job.error = error
            if state == DONE:
                self.stats.bump("completed")
            elif state == CANCELLED:
                self.stats.bump("cancelled")
            else:
                self.stats.bump("failed")
            self._terminal.notify_all()
