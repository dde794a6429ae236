"""Invariant rule pack: verify mapping and retiming results post hoc.

Translation-validation style checks of the guarantees the mapping core
claims for its output (paper Sections 2-4):

* **MAP001 retiming-legality** — a retiming vector ``r`` is legal iff
  every retimed weight ``w_r(e) = w(e) + r(v) - r(u)`` is non-negative
  (Leiserson-Saxe).
* **MAP002 lut-k-feasible** — every emitted LUT's cut (its fanin pins)
  has at most K nodes, re-derived from the mapped network itself.
* **MAP003 label-height** — the cut realizing gate ``v`` has height
  ``height(X_v) = max(l(u) - phi*w + 1) <= l(v)`` under the converged
  labels (the invariant the label computation maintains).
* **MAP005 cone-function** — each plain LUT's truth table equals the
  exact sequential cone function between its cut copies and its root in
  the subject circuit, re-derived through the expanded-circuit semantics
  (every path from cut copy ``u^w`` to the root crosses exactly ``w``
  registers).
* **MAP006 label-domain** — labels have the right shape: one per subject
  node, 0 on PIs, at least 1 on gates.
Resynthesized LUT trees are skipped by MAP003/MAP005: decomposition
moves logic *off* the loop, so the plain-cut height/cone invariants
deliberately do not apply to them.  The driver passes the authoritative
set of resynthesized subject nodes (``resyn_roots``); without it the
verifier falls back to the ``base~sN`` naming convention, which cannot
see single-LUT trees — a cone-coverage failure then degrades to an INFO
finding rather than an ERROR.

:func:`verify_mapping` bundles the mapping pack with a structural pass
over the mapped network; :func:`certificate` condenses the outcome into
the machine-readable summary attached to ``SeqMapResult``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.engine import (
    CircuitContext,
    Diagnostic,
    Location,
    Severity,
    all_rules,
    has_errors,
    rule,
    run_rules,
    sort_diagnostics,
)
from repro.analysis.structural import lint_circuit
from repro.core.expanded import sequential_cone_function
from repro.netlist.graph import NodeKind, SeqCircuit

#: Resynthesis trees name their internal LUTs ``<base>~s<j>``.
RESYN_MARK = "~s"

#: Widest cut the dense cone-function recomputation evaluates.
MAX_CONE_CUT = 16


@dataclass
class MappingContext:
    """Context of the ``"mapping"`` scope: a subject/mapped pair."""

    subject: SeqCircuit
    mapped: SeqCircuit
    phi: int
    labels: Sequence[int]  # empty when the mapper computed none (FlowSYN-s)
    k: int
    algorithm: str = ""
    file: Optional[str] = None
    #: subject node names realized by resynthesis trees, when the caller
    #: (the mapping driver) knows them exactly; ``None`` means unknown
    #: and the verifier falls back to the naming convention.
    resyn_roots: Optional[AbstractSet[str]] = None
    #: pre-built certificate blobs from :mod:`repro.analysis.certify`;
    #: ``None`` makes RET002/RET003 construct their own on the fly.
    schedule_cert: Optional[Dict[str, object]] = None
    cycle_cert: Optional[Dict[str, object]] = None

    def loc(self, nid: Optional[int] = None) -> Location:
        node = None if nid is None else self.mapped.name_of(nid)
        return Location(self.mapped.name, node, self.file)

    def subject_id(self, name: str) -> Optional[int]:
        return self.subject.id_of(name) if name in self.subject else None

    def is_resyn_member(self, nid: int) -> bool:
        """True for internal tree LUTs and for roots wired to them.

        With ``resyn_roots`` provided this is exact; otherwise the
        ``base~sN`` naming convention identifies trees — except trees
        that collapsed to a single LUT, which keep the bare base name.
        """
        name = self.mapped.name_of(nid)
        if self.resyn_roots is not None and name in self.resyn_roots:
            return True
        if RESYN_MARK in name:
            return True
        return any(
            RESYN_MARK in self.mapped.name_of(p.src)
            for p in self.mapped.fanins(nid)
        )

    def plain_luts(self) -> Iterator[Tuple[int, int, List[Tuple[int, int]]]]:
        """Mapped LUTs with a full subject correspondence.

        Yields ``(mapped_id, subject_id, cut)`` where ``cut`` is the
        fanin pin list translated to subject node ids; LUTs belonging to
        resynthesis trees or without a by-name subject counterpart are
        skipped (their invariants are different or unverifiable).
        """
        for g in self.mapped.gates:
            if self.is_resyn_member(g):
                continue
            v = self.subject_id(self.mapped.name_of(g))
            if v is None or self.subject.kind(v) is not NodeKind.GATE:
                continue
            cut: List[Tuple[int, int]] = []
            ok = True
            for pin in self.mapped.fanins(g):
                u = self.subject_id(self.mapped.name_of(pin.src))
                if u is None:
                    ok = False
                    break
                cut.append((u, pin.weight))
            if ok:
                yield g, v, cut


@dataclass
class RetimingContext:
    """Context of the ``"retiming"`` scope: a circuit and a lag vector."""

    circuit: SeqCircuit
    r: Sequence[int]
    file: Optional[str] = None

    def loc(self, nid: Optional[int] = None) -> Location:
        node = None if nid is None else self.circuit.name_of(nid)
        return Location(self.circuit.name, node, self.file)


@rule(
    "MAP001",
    "retiming-legality",
    Severity.ERROR,
    "retiming",
    "A legal retiming keeps every retimed edge weight "
    "w_r(e) = w(e) + r(v) - r(u) non-negative (Leiserson-Saxe).",
)
def check_retiming_legality(ctx: RetimingContext) -> Iterator[Diagnostic]:
    if len(ctx.r) != len(ctx.circuit):
        yield Diagnostic(
            "MAP001",
            Severity.ERROR,
            f"retiming vector has {len(ctx.r)} entries for "
            f"{len(ctx.circuit)} nodes",
            ctx.loc(),
        )
        return
    for src, dst, weight in ctx.circuit.edges():
        retimed = weight + ctx.r[dst] - ctx.r[src]
        if retimed < 0:
            yield Diagnostic(
                "MAP001",
                Severity.ERROR,
                f"edge {ctx.circuit.name_of(src)!r} -> "
                f"{ctx.circuit.name_of(dst)!r}: retimed weight "
                f"{weight} + {ctx.r[dst]} - {ctx.r[src]} = {retimed} < 0",
                ctx.loc(dst),
                data={"weight": weight, "retimed": retimed},
            )


@rule(
    "MAP002",
    "lut-k-feasible",
    Severity.ERROR,
    "mapping",
    "Every emitted LUT must be K-feasible: its cut (fanin pins) has at "
    "most K nodes.",
)
def check_lut_k_feasible(ctx: MappingContext) -> Iterator[Diagnostic]:
    for g in ctx.mapped.gates:
        width = len(ctx.mapped.fanins(g))
        if width > ctx.k:
            yield Diagnostic(
                "MAP002",
                Severity.ERROR,
                f"LUT has a {width}-node cut > K={ctx.k}",
                ctx.loc(g),
                data={"cut_size": width, "k": ctx.k},
            )


@rule(
    "MAP003",
    "label-height",
    Severity.ERROR,
    "mapping",
    "The cut realizing gate v must have height "
    "max(l(u) - phi*w + 1) <= l(v) under the converged labels.",
)
def check_label_height(ctx: MappingContext) -> Iterator[Diagnostic]:
    if not ctx.labels:
        return
    if len(ctx.labels) != len(ctx.subject):
        return  # MAP006 reports the shape mismatch
    for g, v, cut in ctx.plain_luts():
        if not cut:
            continue
        height = max(ctx.labels[u] - ctx.phi * w + 1 for u, w in cut)
        if height > ctx.labels[v]:
            yield Diagnostic(
                "MAP003",
                Severity.ERROR,
                f"cut height {height} exceeds label l(v)={ctx.labels[v]} "
                f"at phi={ctx.phi}",
                ctx.loc(g),
                data={"height": height, "label": ctx.labels[v], "phi": ctx.phi},
            )


@rule(
    "MAP005",
    "cone-function",
    Severity.ERROR,
    "mapping",
    "Each plain LUT's truth table must equal the exact sequential cone "
    "function between its cut copies u^w and its root in the subject "
    "circuit (every path from u^w to the root crosses exactly w "
    "registers).",
)
def check_cone_function(ctx: MappingContext) -> Iterator[Diagnostic]:
    for g, v, cut in ctx.plain_luts():
        if len(cut) > MAX_CONE_CUT:
            continue  # too wide for dense re-evaluation; MAP002 covers size
        try:
            expected = sequential_cone_function(ctx.subject, v, cut)
        except ValueError as exc:
            # With exact resynthesis provenance this is a hard wiring
            # fault.  Without it, a non-covering cut is exactly what a
            # single-LUT resynthesis tree looks like, so only note it.
            exact = ctx.resyn_roots is not None
            yield Diagnostic(
                "MAP005",
                Severity.ERROR if exact else Severity.INFO,
                f"cut does not cover the expanded circuit of the subject "
                f"gate ({exc})"
                + ("" if exact else "; skipped: possible resynthesized LUT"),
                ctx.loc(g),
            )
            continue
        if expected != ctx.mapped.func(g):
            yield Diagnostic(
                "MAP005",
                Severity.ERROR,
                "LUT function differs from the sequential cone function "
                "of its cut in the subject circuit",
                ctx.loc(g),
            )


@rule(
    "MAP006",
    "label-domain",
    Severity.ERROR,
    "mapping",
    "Converged labels have one entry per subject node, 0 on PIs and at "
    "least 1 on gates.",
)
def check_label_domain(ctx: MappingContext) -> Iterator[Diagnostic]:
    if not ctx.labels:
        return
    if len(ctx.labels) != len(ctx.subject):
        yield Diagnostic(
            "MAP006",
            Severity.ERROR,
            f"label vector has {len(ctx.labels)} entries for "
            f"{len(ctx.subject)} subject nodes",
            Location(ctx.subject.name, None, ctx.file),
        )
        return
    for pi in ctx.subject.pis:
        if ctx.labels[pi] != 0:
            yield Diagnostic(
                "MAP006",
                Severity.ERROR,
                f"primary input label is {ctx.labels[pi]}, not 0",
                Location(ctx.subject.name, ctx.subject.name_of(pi), ctx.file),
            )
    for g in ctx.subject.gates:
        if ctx.labels[g] < 1:
            yield Diagnostic(
                "MAP006",
                Severity.ERROR,
                f"gate label is {ctx.labels[g]}, below the minimum of 1",
                Location(ctx.subject.name, ctx.subject.name_of(g), ctx.file),
            )


class VerificationError(RuntimeError):
    """A produced mapping violates a certified invariant."""

    def __init__(self, message: str, diagnostics: List[Diagnostic]) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


def verify_mapping(
    subject: SeqCircuit,
    mapped: SeqCircuit,
    phi: int,
    labels: Sequence[int],
    k: int,
    algorithm: str = "",
    resyn_roots: Optional[AbstractSet[str]] = None,
    schedule_cert: Optional[Dict[str, object]] = None,
    cycle_cert: Optional[Dict[str, object]] = None,
) -> List[Diagnostic]:
    """Certify one mapping result: invariant pack + structural pass.

    ``resyn_roots`` names the subject gates realized by resynthesis
    trees (exact provenance from the driver); when omitted the verifier
    infers trees from the naming convention and softens cone-coverage
    failures to INFO.  ``schedule_cert`` / ``cycle_cert`` are pre-built
    certificate blobs (:mod:`repro.analysis.certify`) for RET002/RET003
    to re-check instead of rebuilding.  Returns every diagnostic found;
    an empty list (or one free of ``ERROR`` findings) certifies the
    result.
    """
    ctx = MappingContext(
        subject,
        mapped,
        phi,
        labels,
        k,
        algorithm,
        resyn_roots=resyn_roots,
        schedule_cert=schedule_cert,
        cycle_cert=cycle_cert,
    )
    diags = run_rules("mapping", ctx)
    diags += lint_circuit(CircuitContext(mapped, k))
    return sort_diagnostics(diags)


def lint_retiming(
    circuit: SeqCircuit, r: Sequence[int], file: Optional[str] = None
) -> List[Diagnostic]:
    """Check a retiming vector for Leiserson-Saxe legality."""
    return run_rules("retiming", RetimingContext(circuit, r, file))


def verified_rule_ids() -> List[str]:
    """Rule ids :func:`verify_mapping` runs (for the certificate)."""
    return [r.id for r in all_rules("mapping")] + [
        r.id for r in all_rules("circuit")
    ]


def certificate(
    diags: Sequence[Diagnostic],
    phi: int,
    algorithm: str = "",
    t_verify: float = 0.0,
    schedule_certificate: Optional[Dict[str, object]] = None,
    cycle_certificate: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Machine-readable verification summary for a ``SeqMapResult``.

    ``schedule_certificate`` / ``cycle_certificate`` embed the
    independent proof blobs (:mod:`repro.analysis.certify`) the driver
    built for RET002/RET003, so a result carries not just the verdict
    but the replayable evidence.
    """
    errors = [d for d in diags if d.severity is Severity.ERROR]
    warnings = [d for d in diags if d.severity is Severity.WARNING]
    out: Dict[str, object] = {
        "schema": 1,
        "verified": not has_errors(diags),
        "algorithm": algorithm,
        "phi": phi,
        "rules": sorted(verified_rule_ids()),
        "errors": len(errors),
        "warnings": len(warnings),
        "findings": [d.as_dict() for d in diags],
        "t_verify": round(t_verify, 6),
    }
    if schedule_certificate is not None:
        out["schedule_certificate"] = schedule_certificate
    if cycle_certificate is not None:
        out["cycle_certificate"] = cycle_certificate
    return out


def raise_on_errors(
    diags: Sequence[Diagnostic], subject_name: str, algorithm: str = ""
) -> None:
    """Fail fast: raise :class:`VerificationError` on any ERROR finding."""
    errors = [d for d in diags if d.severity is Severity.ERROR]
    if not errors:
        return
    first = errors[0]
    raise VerificationError(
        f"{subject_name}: {algorithm or 'mapping'} result failed "
        f"verification with {len(errors)} error(s); first: "
        f"[{first.rule_id}] {first.location.qualified}: {first.message}",
        list(diags),
    )
