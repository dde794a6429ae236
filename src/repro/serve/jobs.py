"""Job model of the mapping service: specs, states, cancellable budgets.

A *job* is one accepted mapping request: a circuit (by content id in the
store), an algorithm, and the label/budget options of the existing
mapper entry points.  Jobs move through a tiny, strictly forward state
machine::

    queued ──► running ──► done
                       ├─► failed      (structured reason, never lost)
                       └─► cancelled   (cooperative; best-known result
                                        attached when one exists)

Every transition is journaled before it is acted on
(:mod:`repro.serve.journal`), so the state machine survives ``kill -9``
at any instant.  Terminal states are absorbing: recovery never demotes a
``done`` job, and a crash mid-``running`` replays back to ``queued``;
the rerun adopts its completed probes from the outcome cache.

:class:`JobBudget` extends the per-run :class:`~repro.resilience.budget.
Budget` with cooperative cancellation: a cancel request sets an event
the search observes at its existing budget checkpoints (between probes),
so cancellation has exactly the semantics of deadline pressure — the
run stops at the next probe boundary and degrades to the best-known
answer, with ``"cancelled"`` as the reason.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.expanded import DEFAULT_MAX_COPIES
from repro.resilience.budget import Budget

#: Algorithms a job may request (the suite's report algorithms).
ALGORITHMS = ("flowsyn-s", "turbomap", "turbosyn")

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a recovered job is re-enqueued from.
PENDING_STATES = (QUEUED, RUNNING)
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


#: Spec fields older releases journaled and this one dropped: the label
#: engine selectors and the probe process count, every value of which
#: ran bit-identically to the one remaining (sequential) path, and the
#: probe-seeding switch, whose cold setting could leave a shared outcome
#: cache answering later default jobs with a different mapping.  Journal
#: replay discards them (a replayed job runs the one seeding path);
#: HTTP intake does not.
RETIRED_SPEC_FIELDS = ("engine", "flow", "kernel", "workers", "warm_start")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class JobSpec:
    """What to map and how — the JSON-able request half of a job.

    Every field is validated at construction, so a malformed request is
    refused with a ``ValueError`` naming the field before anything is
    journaled.
    """

    circuit_id: str
    algorithm: str = "turbomap"
    k: int = 5
    max_copies: int = DEFAULT_MAX_COPIES
    check: bool = True
    deadline: Optional[float] = None
    probe_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.circuit_id, str) or not self.circuit_id:
            raise ValueError(
                f"circuit_id must be a non-empty string, got {self.circuit_id!r}"
            )
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r} "
                f"(one of {', '.join(ALGORITHMS)})"
            )
        for name in ("k", "max_copies"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        if not isinstance(self.check, bool):
            raise ValueError(f"check must be a bool, got {self.check!r}")
        for name in ("deadline", "probe_timeout"):
            value = getattr(self, name)
            if value is None:
                continue
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not value > 0
            ):
                raise ValueError(
                    f"{name} must be null or a positive number, got {value!r}"
                )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown job spec field(s): {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_journal(cls, data: Dict[str, Any]) -> "JobSpec":
        """:meth:`from_dict` for a journaled accept record.

        Drops :data:`RETIRED_SPEC_FIELDS`, so journals written before
        those fields were removed still replay.
        """
        return cls.from_dict(
            {k: v for k, v in data.items() if k not in RETIRED_SPEC_FIELDS}
        )


@dataclass
class Job:
    """One accepted job: spec + live state + terminal outcome."""

    id: str
    seq: int  # journal seq of the accept record (admission order)
    #: The request; the raw journaled dict when replay rejected it (the
    #: job is then recovered as failed and never runs).
    spec: Union[JobSpec, Dict[str, Any]]
    state: str = QUEUED
    #: Journal seqs of the cancel-request / terminal records (compaction
    #: preserves each record's original seq).
    cancel_seq: Optional[int] = None
    terminal_seq: Optional[int] = None
    #: Terminal summary (phi, luts, degraded, signature, artifact path).
    result: Optional[Dict[str, Any]] = None
    #: Structured failure record (exception type, message).
    error: Optional[Dict[str, Any]] = None
    #: How many times a process picked this job up (1 + crash replays).
    attempts: int = 0
    #: A cancel request was journaled (honored at the next checkpoint,
    #: including across a crash).
    cancel_requested: bool = False

    def spec_dict(self) -> Dict[str, Any]:
        """The spec as a JSON-able dict."""
        if isinstance(self.spec, JobSpec):
            return self.spec.to_dict()
        return dict(self.spec)

    def view(self) -> Dict[str, Any]:
        """JSON-able public status of this job."""
        out: Dict[str, Any] = {
            "id": self.id,
            "seq": self.seq,
            "state": self.state,
            "spec": self.spec_dict(),
            "attempts": self.attempts,
            "cancel_requested": self.cancel_requested,
        }
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        return out


class JobBudget(Budget):
    """A :class:`Budget` that can additionally be cancelled cooperatively.

    Cancellation raises through the same control-flow paths as deadline
    expiry (the searches already catch and degrade), but records
    ``"cancelled"`` as the reason so callers can distinguish the two.
    """

    def __init__(
        self,
        deadline: Optional[float] = None,
        probe_timeout: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(
            deadline=deadline, probe_timeout=probe_timeout, clock=clock
        )
        self._cancel = threading.Event()

    def cancel(self) -> None:
        """Request cooperative cancellation (observed between probes)."""
        self._cancel.set()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def expired(self) -> bool:
        return self._cancel.is_set() or super().expired()

    def check(self) -> None:
        self._raise_if_cancelled()
        super().check()

    def begin_probe(self) -> Optional[float]:
        self._raise_if_cancelled()
        return super().begin_probe()

    def _raise_if_cancelled(self) -> None:
        if self._cancel.is_set():
            from repro.resilience.budget import DeadlineExpired

            raise DeadlineExpired("job cancelled")

    def exhaust(self, exc: BaseException) -> None:
        if self._cancel.is_set():
            self.exhausted = True
            self.reason = "cancelled"
            self.note("cancelled", detail=str(exc))
        else:
            super().exhaust(exc)


class ServiceStats:
    """Thread-safe counters surfaced by ``/healthz`` and reports."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.replayed = 0
        #: EWMA of recent job wall-clock seconds (Retry-After estimates).
        self.avg_job_seconds = 1.0

    def bump(self, name: str, value: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + value)

    def observe_duration(self, seconds: float) -> None:
        with self._lock:
            self.avg_job_seconds = (
                0.7 * self.avg_job_seconds + 0.3 * max(seconds, 1e-3)
            )

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "submitted": self.submitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "replayed": self.replayed,
                "avg_job_seconds": round(self.avg_job_seconds, 6),
            }


#: Retry-After estimate: how long until a queue slot likely frees up.
def retry_after_estimate(pending: int, avg_job_seconds: float) -> float:
    return float(min(60.0, max(1.0, pending * avg_job_seconds)))


__all__: List[str] = [
    "ALGORITHMS",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "PENDING_STATES",
    "TERMINAL_STATES",
    "RETIRED_SPEC_FIELDS",
    "JobSpec",
    "Job",
    "JobBudget",
    "ServiceStats",
    "retry_after_estimate",
]
