"""Resilience subsystem: budgets, atomic writes, fault injection.

Long suite and search runs must survive partial failure instead of
discarding completed work.  This package supplies the three pieces the
rest of the codebase threads through its execution layers:

* :mod:`repro.resilience.budget` — wall-clock :class:`Budget` (overall
  deadline + per-probe timeout) consulted by the phi search; on expiry
  it returns the best-known feasible answer marked ``degraded`` instead
  of dying;
* :mod:`repro.resilience.atomic` — temp-sibling + ``os.replace`` JSON
  artifact writes (a crashed writer never corrupts the old file);
* :mod:`repro.resilience.faultinject` — deterministic :class:`FaultPlan`
  injection (kill the process, delay, raise, simulate Ctrl-C) behind
  :func:`fault_point` sites and the ``REPRO_FAULT_PLAN`` env hook, so
  every recovery path is testable in CI without flaky sleeps.
"""

from repro.resilience.atomic import atomic_write_json, atomic_write_text
from repro.resilience.budget import (
    Budget,
    BudgetExhausted,
    DeadlineExpired,
    ProbeTimeout,
)
from repro.resilience.faultinject import (
    ENV_PLAN,
    KILL_EXIT_CODE,
    Fault,
    FaultPlan,
    FaultPlanError,
    InjectedFault,
    fault_point,
)

__all__ = [
    "ENV_PLAN",
    "KILL_EXIT_CODE",
    "Budget",
    "BudgetExhausted",
    "DeadlineExpired",
    "Fault",
    "FaultPlan",
    "FaultPlanError",
    "InjectedFault",
    "ProbeTimeout",
    "atomic_write_json",
    "atomic_write_text",
    "fault_point",
]
