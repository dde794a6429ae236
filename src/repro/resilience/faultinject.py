"""Deterministic fault injection: make every recovery path testable.

A :class:`FaultPlan` is a list of :class:`Fault` specs.  Instrumented
code calls :func:`fault_point` with a *site* name and a *tag*; when the
active plan has a matching fault, the fault fires — raising, delaying,
killing the process, or simulating Ctrl-C.  No plan installed means
every fault point is a no-op (one dict lookup), so production paths pay
nothing.

Sites instrumented in this codebase:

``probe``
    One phi-feasibility probe; tag ``"<circuit>:phi=<value>"``.  A
    ``kill`` here crashes the process mid-search: a served job restarted
    after it must adopt every probe that finished from the outcome cache
    (the ``probe`` window of ``serve-chaos``).
``suite-cell``
    One (circuit, algorithm) cell of the benchmark suite; tag
    ``"<circuit>:<algorithm>"``.  A ``raise`` here exercises the suite
    fault boundary and checkpoint/resume.
``artifact-write``
    A JSON artifact write, between writing the temp sibling and the
    atomic ``os.replace``; tag is the destination path.  A ``raise``
    here proves interrupted writes never corrupt the old file.
``artifact-dirsync``
    Between the atomic ``os.replace`` and the directory fsync that makes
    the rename durable; tag is the destination path.  A crash here must
    leave a complete (old or new) file either way.
``journal-append``
    One write-ahead journal record (:mod:`repro.serve.journal`), *after*
    the record reached stable storage (write + fsync) but before the
    service acts on it; tag ``"<type>:<job-id>"``.  A ``kill`` here is
    the canonical crash-only test: on restart the replay must redo the
    action exactly once.
``store-put``
    One content-addressed store insertion
    (:mod:`repro.serve.store`), after the canonical BLIF text landed;
    tag is the circuit id.  A crash here must leave the
    store readable (the entry is complete or absent, never torn).
``worker-dispatch``
    The serve scheduler handing one accepted job to a worker lane; tag
    ``"<job-id>:<circuit-id>"``.  A ``kill`` here crashes with the job
    journaled-but-unstarted; replay must re-dispatch it.
``result-commit``
    Between writing a job's result artifact and appending the terminal
    journal record; tag is the job id.  A crash here leaves a complete
    artifact with a non-terminal journal — recovery must reconcile the
    two without recomputing (or recompute bit-identically).

Plans are deterministic: matching uses :func:`fnmatch.fnmatchcase` over
the tag (no randomness), ``at`` skips the first N matching hits, and
``fires`` caps how many times a fault triggers.  Cross-process one-shot
semantics (a killed process must *not* be killed again after it is
restarted) use ``state_dir``: firing atomically claims a marker file
with ``O_CREAT | O_EXCL``, which works across processes.  ``kill``
faults without a ``state_dir`` would fire on every restart forever — the
plan loader rejects them.

The ``REPRO_FAULT_PLAN`` environment variable activates a plan without
code changes: either inline JSON or ``@/path/to/plan.json``::

    {"state_dir": "chaos-state",
     "faults": [
       {"site": "probe", "match": "*:phi=3", "action": "kill"},
       {"site": "suite-cell", "match": "dk16:turbomap",
        "action": "raise", "message": "injected stage failure"}]}
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Optional

ENV_PLAN = "REPRO_FAULT_PLAN"

#: Exit status of a process killed by a ``kill`` fault (distinctive, so
#: an unexpected process death is distinguishable from an injected one).
KILL_EXIT_CODE = 43

_ACTIONS = ("raise", "kill", "delay", "interrupt")


class InjectedFault(RuntimeError):
    """The exception raised by a ``raise`` fault (recognizable by name)."""


class FaultPlanError(ValueError):
    """A fault plan could not be parsed or is inconsistent."""


@dataclass(frozen=True)
class Fault:
    """One injected fault: *where* (site/match/at) and *what* (action)."""

    site: str
    action: str  # "raise" | "kill" | "delay" | "interrupt"
    match: str = "*"  # fnmatch glob over the full fault-point tag
    at: int = 0  # skip this many matching hits before firing
    fires: int = 1  # firings allowed (0 = unlimited)
    seconds: float = 0.0  # sleep length for "delay"
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise FaultPlanError(
                f"unknown fault action {self.action!r} (one of {_ACTIONS})"
            )
        if self.at < 0 or self.fires < 0:
            raise FaultPlanError("fault 'at' and 'fires' must be >= 0")


@dataclass
class FaultPlan:
    """A set of faults plus the per-process / on-disk firing state."""

    faults: List[Fault] = field(default_factory=list)
    #: directory for cross-process one-shot markers; required for
    #: ``kill`` faults (a restarted process would otherwise be re-killed
    #: forever)
    state_dir: Optional[str] = None
    _hits: Dict[int, int] = field(default_factory=dict, repr=False)
    _fired: Dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for fault in self.faults:
            if fault.action == "kill" and self.state_dir is None:
                raise FaultPlanError(
                    "'kill' faults require a plan state_dir (one-shot "
                    "markers must survive the killed process)"
                )

    # -- construction ---------------------------------------------------
    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        if isinstance(data, list):
            data = {"faults": data}
        if not isinstance(data, dict) or not isinstance(data.get("faults"), list):
            raise FaultPlanError("fault plan must be a {'faults': [...]} object")
        faults = []
        for raw in data["faults"]:
            if not isinstance(raw, dict):
                raise FaultPlanError(f"malformed fault entry {raw!r}")
            unknown = set(raw) - {
                "site", "action", "match", "at", "fires", "seconds", "message",
            }
            if unknown:
                raise FaultPlanError(f"unknown fault field(s): {sorted(unknown)}")
            try:
                faults.append(Fault(**raw))
            except TypeError as exc:
                raise FaultPlanError(f"malformed fault entry {raw!r}: {exc}") from exc
        state_dir = data.get("state_dir")
        if state_dir is not None and not isinstance(state_dir, str):
            raise FaultPlanError("state_dir must be a string path")
        return cls(faults=faults, state_dir=state_dir)

    @classmethod
    def from_env(cls, value: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULT_PLAN`` value: inline JSON or ``@path``."""
        if value.startswith("@"):
            with open(value[1:]) as fh:
                return cls.from_json(fh.read())
        return cls.from_json(value)

    # -- firing ---------------------------------------------------------
    def hit(self, site: str, tag: str) -> None:
        """Record one pass through a fault point; fire matching faults."""
        for index, fault in enumerate(self.faults):
            if fault.site != site or not fnmatchcase(tag, fault.match):
                continue
            seen = self._hits.get(index, 0)
            self._hits[index] = seen + 1
            if seen < fault.at:
                continue
            if self._claim(index, fault):
                self._fire(fault)

    def _claim(self, index: int, fault: Fault) -> bool:
        """Reserve one firing of ``fault``; False when used up."""
        if fault.fires == 0:
            return True  # unlimited
        if self.state_dir is not None:
            os.makedirs(self.state_dir, exist_ok=True)
            for slot in range(fault.fires):
                marker = os.path.join(
                    self.state_dir, f"fault{index}.fired.{slot}"
                )
                try:
                    fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    continue
                os.close(fd)
                return True
            return False
        fired = self._fired.get(index, 0)
        if fired >= fault.fires:
            return False
        self._fired[index] = fired + 1
        return True

    def _fire(self, fault: Fault) -> None:
        if fault.action == "delay":
            time.sleep(fault.seconds)
            return
        if fault.action == "kill":
            os._exit(KILL_EXIT_CODE)
        if fault.action == "interrupt":
            raise KeyboardInterrupt(fault.message)
        raise InjectedFault(fault.message)


# -- the process-global active plan -------------------------------------
_PLAN: Optional[FaultPlan] = None
_ENV_CHECKED = False


def install(plan: FaultPlan) -> None:
    """Activate ``plan`` for this process (and future forked children)."""
    global _PLAN, _ENV_CHECKED
    _PLAN = plan
    _ENV_CHECKED = True


def clear() -> None:
    """Deactivate fault injection (also suppresses the env hook)."""
    global _PLAN, _ENV_CHECKED
    _PLAN = None
    _ENV_CHECKED = True


def reset() -> None:
    """Forget everything, re-enabling the lazy env-var lookup (tests)."""
    global _PLAN, _ENV_CHECKED
    _PLAN = None
    _ENV_CHECKED = False


def active() -> Optional[FaultPlan]:
    """The installed plan, lazily loading ``REPRO_FAULT_PLAN`` once."""
    global _PLAN, _ENV_CHECKED
    if _PLAN is None and not _ENV_CHECKED:
        _ENV_CHECKED = True
        raw = os.environ.get(ENV_PLAN)
        if raw:
            _PLAN = FaultPlan.from_env(raw)
    return _PLAN


def fault_point(site: str, tag: str = "") -> None:
    """Declare an injectable point; no-op unless an active plan matches."""
    plan = active()
    if plan is not None:
        plan.hit(site, tag)
