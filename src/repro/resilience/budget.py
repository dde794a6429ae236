"""Wall-clock budgets for long-running searches.

A :class:`Budget` bounds one mapper run with an overall *deadline* and a
per-probe *timeout*, both in wall-clock seconds.  The phi search
(:func:`repro.core.driver.search_min_phi`) consults the budget between
probes and hands each probe an absolute deadline; on expiry it returns
the best feasible ``phi`` found so far instead of dying, and the budget
records *why* (``reason``) so the result can be marked ``degraded`` in
reports.  ``events`` keeps a structured trace of what happened, so a
report can explain exactly why a run degraded.

The clock is injectable (``clock=...``) so expiry paths are testable
deterministically, without real sleeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional


class BudgetExhausted(RuntimeError):
    """The budget ran out before *any* feasible ``phi`` was found.

    Raised when there is no best-known answer to degrade to; callers
    with a fault boundary (the suite runner) record it as a structured
    error entry.
    """


class DeadlineExpired(RuntimeError):
    """Control-flow signal: the overall wall-clock deadline has passed.

    Raised by :meth:`Budget.check` between probes; the search catches it
    and degrades to the best-known feasible answer.
    """


class ProbeTimeout(RuntimeError):
    """One label-computation probe exceeded its per-probe deadline.

    Raised cooperatively by :class:`repro.core.labels.LabelSolver` (the
    deadline is checked once per label round).
    """


@dataclass
class Budget:
    """Deadline + per-probe timeout, plus the run's resilience state.

    ``deadline`` bounds the whole search in seconds from :meth:`start`
    (first consultation); ``probe_timeout`` bounds each individual label
    computation.  Either may be ``None`` (unlimited).  A fresh ``Budget``
    must be created per run — it accumulates state.
    """

    deadline: Optional[float] = None
    probe_timeout: Optional[float] = None
    clock: Callable[[], float] = time.monotonic
    # -- run state, filled in as the search executes --
    #: the budget expired (or a probe timed out) and the search returned
    #: a degraded best-known answer instead of the proven optimum
    exhausted: bool = False
    #: why: ``"deadline"`` or ``"probe_timeout"`` (``None`` when not
    #: exhausted)
    reason: Optional[str] = None
    #: structured trace of budget events (JSON-able dicts)
    events: List[dict] = field(default_factory=list)
    _t0: Optional[float] = field(default=None, repr=False)

    def start(self) -> "Budget":
        """Start the deadline clock (idempotent); returns ``self``."""
        if self._t0 is None:
            self._t0 = self.clock()
        return self

    def elapsed(self) -> float:
        if self._t0 is None:
            return 0.0
        return self.clock() - self._t0

    def remaining(self) -> Optional[float]:
        """Seconds left of the overall deadline; ``None`` if unlimited."""
        if self.deadline is None:
            return None
        self.start()
        return self.deadline - self.elapsed()

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def check(self) -> None:
        """Raise :class:`DeadlineExpired` once the deadline has passed."""
        if self.expired():
            raise DeadlineExpired(
                f"wall-clock budget of {self.deadline}s exhausted "
                f"after {self.elapsed():.3f}s"
            )

    def begin_probe(self) -> Optional[float]:
        """Gate one probe: check the deadline, return the probe's allowance.

        Raises :class:`DeadlineExpired` when the overall deadline has
        passed; otherwise returns the seconds the probe may run for (the
        tighter of ``probe_timeout`` and the remaining deadline), or
        ``None`` when unlimited.  The allowance is relative on purpose:
        the probe anchors it to its own monotonic clock at start, which
        keeps the budget's clock injectable without leaking into the
        solver's hot path.  A single clock reading decides both the
        expiry check and the allowance, so the two never disagree.
        """
        remaining = self.remaining()
        if remaining is not None and remaining <= 0.0:
            raise DeadlineExpired(
                f"wall-clock budget of {self.deadline}s exhausted "
                f"after {self.elapsed():.3f}s"
            )
        candidates = [
            limit
            for limit in (self.probe_timeout, remaining)
            if limit is not None
        ]
        return min(candidates) if candidates else None

    def note(self, kind: str, **details: object) -> None:
        """Append a structured event to the resilience trace."""
        event: dict = {"kind": kind, "elapsed": round(self.elapsed(), 6)}
        event.update(details)
        self.events.append(event)

    def exhaust(self, exc: BaseException) -> None:
        """Record that the search degraded because of ``exc``."""
        self.exhausted = True
        self.reason = (
            "probe_timeout" if isinstance(exc, ProbeTimeout) else "deadline"
        )
        self.note("budget_exhausted", reason=self.reason, detail=str(exc))
