"""Rule-based static-analysis engine for circuits and mapping results.

The analysis subsystem certifies what the mapping core only promises: the
paper states invariants (Leiserson-Saxe retiming legality, K-feasibility
of every emitted LUT, label/cut-height consistency, the MDR-ratio lower
bound on the achieved period) that the algorithms *should* establish, and
this engine re-checks them after the fact, in the spirit of translation
validation.

Design
------
* A :class:`Rule` is an identified, severity-classified check over one
  *scope* — ``"circuit"`` (structural checks on a :class:`SeqCircuit`),
  ``"mapping"`` (invariant checks on a subject/mapped pair) or
  ``"retiming"`` (legality of a retiming vector).  Rule packs live in
  :mod:`repro.analysis.structural` and :mod:`repro.analysis.invariants`
  and register themselves on import.
* A check yields :class:`Diagnostic` records carrying the rule id, a
  severity, a human message and a :class:`Location` (circuit, node,
  source file) — precise enough to act on and stable enough to
  fingerprint for baselines (:mod:`repro.analysis.baseline`).
* :func:`run_rules` executes every registered rule of a scope against a
  context object and returns the sorted findings; renderers for text /
  JSON live here, SARIF 2.1.0 in :mod:`repro.analysis.sarif`.

Rules must never raise on malformed input — a linter that crashes on the
circuits it exists to reject is useless — so every check is written
against the raw graph accessors, not the validating helpers.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.netlist.graph import SeqCircuit


class Severity(enum.Enum):
    """Diagnostic severity; ``ERROR`` findings make verification fail."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Sort key: errors first."""
        return _SEVERITY_RANK[self]


_SEVERITY_RANK: Dict[Severity, int] = {
    Severity.ERROR: 0,
    Severity.WARNING: 1,
    Severity.INFO: 2,
}

#: Valid rule scopes.
SCOPES = (
    "circuit",
    "mapping",
    "retiming",
    "kernel",
    "sanitizer",
    "cache",
)


def anchor_node(names: Iterable[str]) -> str:
    """Deterministic anchor for a diagnostic over an unordered node set.

    Fingerprints hash ``rule|circuit|node``, so a rule that reports a
    *group* of nodes (a cycle, an offender set) must
    not anchor at whatever element an iteration order produced first —
    set/dict order varies across Python versions and hash seeds, and a
    cycle can be entered at any rotation.  Sorting first makes the
    fingerprint a pure function of the finding.
    """
    return min(names)


def canonical_cycle(names: Sequence[str]) -> List[str]:
    """Rotate a cycle so it starts at its lexicographic minimum.

    The same cycle discovered from a different entry point then renders
    and fingerprints identically.
    """
    if not names:
        return []
    pivot = min(range(len(names)), key=names.__getitem__)
    return list(names[pivot:]) + list(names[:pivot])


@dataclass(frozen=True)
class Location:
    """Where a diagnostic points: circuit, optional node, optional file."""

    circuit: str
    node: Optional[str] = None
    file: Optional[str] = None

    @property
    def qualified(self) -> str:
        """``circuit::node`` (or just the circuit name)."""
        if self.node is None:
            return self.circuit
        return f"{self.circuit}::{self.node}"

    def render(self) -> str:
        if self.file is not None:
            return f"{self.file}: {self.qualified}"
        return self.qualified


@dataclass
class Diagnostic:
    """One finding of one rule at one location."""

    rule_id: str
    severity: Severity
    message: str
    location: Location
    #: Optional machine-readable facts (counts, offending values, ...).
    data: Dict[str, object] = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline suppression.

        Deliberately excludes the message so wording tweaks do not
        invalidate recorded baselines; two same-rule findings on the same
        node collapse, which is the behaviour a baseline wants.
        """
        key = f"{self.rule_id}|{self.location.circuit}|{self.location.node or ''}"
        return hashlib.sha1(key.encode()).hexdigest()[:16]

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "circuit": self.location.circuit,
            "fingerprint": self.fingerprint,
        }
        if self.location.node is not None:
            out["node"] = self.location.node
        if self.location.file is not None:
            out["file"] = self.location.file
        if self.data:
            out["data"] = self.data
        return out

    def render(self) -> str:
        return (
            f"{self.location.render()}: {self.severity.value}: "
            f"{self.rule_id}: {self.message}"
        )


#: A check receives its scope's context object and yields diagnostics.
CheckFn = Callable[..., Iterable[Diagnostic]]


@dataclass(frozen=True)
class Rule:
    """An identified check with a default severity and a scope."""

    id: str
    name: str
    severity: Severity
    scope: str
    description: str
    check: CheckFn

    def run(self, context: object) -> List[Diagnostic]:
        return list(self.check(context))


_REGISTRY: Dict[str, Rule] = {}


def register(new_rule: Rule) -> Rule:
    """Add a rule to the global registry (ids must be unique)."""
    if new_rule.scope not in SCOPES:
        raise ValueError(f"unknown rule scope {new_rule.scope!r}")
    if new_rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {new_rule.id!r}")
    _REGISTRY[new_rule.id] = new_rule
    return new_rule


def rule(
    rule_id: str,
    name: str,
    severity: Severity,
    scope: str,
    description: str,
) -> Callable[[CheckFn], CheckFn]:
    """Decorator registering ``fn`` as the check of a new rule."""

    def wrap(fn: CheckFn) -> CheckFn:
        register(Rule(rule_id, name, severity, scope, description, fn))
        return fn

    return wrap


def get_rule(rule_id: str) -> Rule:
    return _REGISTRY[rule_id]


def all_rules(
    scope: Optional[str] = None, select: Optional[Iterable[str]] = None
) -> List[Rule]:
    """Registered rules, optionally filtered by scope and explicit ids."""
    wanted = None if select is None else set(select)
    out = [
        r
        for r in _REGISTRY.values()
        if (scope is None or r.scope == scope)
        and (wanted is None or r.id in wanted)
    ]
    out.sort(key=lambda r: r.id)
    return out


@dataclass
class CircuitContext:
    """Context of the ``"circuit"`` scope: one circuit under lint."""

    circuit: SeqCircuit
    k: int = 5
    file: Optional[str] = None

    def loc(self, nid: Optional[int] = None) -> Location:
        node = None if nid is None else self.circuit.name_of(nid)
        return Location(self.circuit.name, node, self.file)


def sort_diagnostics(diags: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Severity-major, then rule id, then location — a stable report order."""
    return sorted(
        diags,
        key=lambda d: (d.severity.rank, d.rule_id, d.location.qualified),
    )


def run_rules(
    scope: str,
    context: object,
    select: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Run every registered rule of ``scope`` against ``context``."""
    out: List[Diagnostic] = []
    for r in all_rules(scope, select):
        out.extend(r.run(context))
    return sort_diagnostics(out)


def max_severity(diags: Iterable[Diagnostic]) -> Optional[Severity]:
    best: Optional[Severity] = None
    for d in diags:
        if best is None or d.severity.rank < best.rank:
            best = d.severity
    return best


def has_errors(diags: Iterable[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)


def count_by_severity(diags: Iterable[Diagnostic]) -> Dict[str, int]:
    counts = {s.value: 0 for s in Severity}
    for d in diags:
        counts[d.severity.value] += 1
    return counts


def render_text(diags: Iterable[Diagnostic]) -> str:
    """One line per diagnostic, report order."""
    return "\n".join(d.render() for d in sort_diagnostics(diags))


def diagnostics_json(diags: Iterable[Diagnostic]) -> str:
    """JSON report: an envelope with per-severity counts and findings."""
    ordered = sort_diagnostics(diags)
    payload = {
        "schema": 1,
        "counts": count_by_severity(ordered),
        "diagnostics": [d.as_dict() for d in ordered],
    }
    return json.dumps(payload, indent=2) + "\n"
