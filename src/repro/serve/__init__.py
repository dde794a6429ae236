"""``repro.serve`` — the crash-only mapping service.

A long-running front end over the paper's mappers (TurboMap / TurboSYN
/ FlowSYN-s): accept mapping jobs over HTTP or in-process, dedup
circuits by content into a canonical-BLIF store, run each job's phi
search on a worker lane, and make **crashes boring**: every
job transition is write-ahead journaled and every probe verdict is
written through to the outcome cache (:mod:`repro.cache`), so
``kill -9`` at any instant resumes every accepted job from its last
completed probe with bit-identical results.

Layering (each module's docstring carries its contract):

========================  =============================================
:mod:`~repro.serve.journal`    append-fsync-act WAL + torn-tail replay
:mod:`~repro.serve.store`      content-addressed canonical circuits
                               (one BLIF per circuit)
:mod:`~repro.serve.jobs`       specs, state machine, cancellable budgets
:mod:`~repro.serve.scheduler`  worker lanes draining the job queue
:mod:`~repro.serve.service`    the orchestrator (admission, recovery,
                               execution, degradation)
:mod:`~repro.serve.server`     dependency-free asyncio HTTP front end
:mod:`~repro.serve.client`     stdlib urllib client (CLI / CI / chaos)
:mod:`~repro.serve.chaos`      the crash-recovery differential harness
========================  =============================================

Run it: ``python -m repro.serve --state-dir STATE --port 8731`` (or
``repro serve ...`` via the CLI).
"""

from repro.serve.client import QueueFull, ServeClient, ServeError
from repro.serve.jobs import Job, JobBudget, JobSpec
from repro.serve.journal import Journal, JournalError
from repro.serve.scheduler import Scheduler
from repro.serve.server import ServeServer, run_server
from repro.serve.service import (
    AdmissionRejected,
    MappingService,
    artifact_signature,
)
from repro.serve.store import CircuitStore, StoreError

__all__ = [
    "AdmissionRejected",
    "CircuitStore",
    "Job",
    "JobBudget",
    "JobSpec",
    "Journal",
    "JournalError",
    "MappingService",
    "QueueFull",
    "Scheduler",
    "ServeClient",
    "ServeError",
    "ServeServer",
    "StoreError",
    "artifact_signature",
    "run_server",
]
