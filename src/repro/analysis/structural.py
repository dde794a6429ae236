"""Structural rule pack: lint checks over a raw :class:`SeqCircuit`.

These rules re-check, with per-node diagnostics instead of a single
exception, everything :func:`repro.netlist.validate.ensure_mappable`
demands of a mapping input — plus redundancy smells (dead logic,
duplicate gates) that are legal but suspicious.  They are written against
the raw graph accessors and never raise, so arbitrarily malformed
circuits still produce a full report.

Rule ids
--------
========  ===========================  ========
CIRC001   comb-cycle                   error
CIRC002   dangling-node                warning
CIRC003   fanin-width                  error
CIRC004   edge-weight                  error
CIRC005   io-discipline                error
CIRC006   duplicate-gate               info
CIRC007   gate-arity                   error
========  ===========================  ========
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.analysis.engine import (
    CircuitContext,
    Diagnostic,
    Severity,
    canonical_cycle,
    rule,
)
from repro.netlist.validate import (
    MAX_SHOWN,
    io_discipline_offenders,
    unobservable_nodes,
    unreachable_nodes,
    zero_weight_cycles,
)


@rule(
    "CIRC001",
    "comb-cycle",
    Severity.ERROR,
    "circuit",
    "Every cycle must carry at least one register; a zero-weight cycle "
    "is a combinational loop no retiming can legalize.",
)
def check_comb_cycle(ctx: CircuitContext) -> Iterator[Diagnostic]:
    for cycle in zero_weight_cycles(ctx.circuit):
        # Canonical rotation: the traversal can enter the cycle at any
        # node, so anchor (and fingerprint) at the smallest name.
        names = canonical_cycle(
            [ctx.circuit.name_of(v) for v in cycle]
        )
        shown = " -> ".join(names[:MAX_SHOWN])
        if len(names) > MAX_SHOWN:
            shown += f" -> ... ({len(names)} nodes)"
        yield Diagnostic(
            "CIRC001",
            Severity.ERROR,
            f"combinational cycle with zero register weight: {shown}",
            ctx.loc(ctx.circuit.id_of(names[0])),
            data={"cycle": names},
        )


@rule(
    "CIRC002",
    "dangling-node",
    Severity.WARNING,
    "circuit",
    "Nodes that reach no primary output (dead logic) or that no primary "
    "input reaches (undriven islands) survive mapping as waste.",
)
def check_dangling(ctx: CircuitContext) -> Iterator[Diagnostic]:
    unobservable = set(unobservable_nodes(ctx.circuit))
    unreachable = set(unreachable_nodes(ctx.circuit))
    for nid in sorted(unobservable | unreachable):
        reasons = []
        if nid in unobservable:
            reasons.append("reaches no primary output")
        if nid in unreachable:
            reasons.append("unreachable from the primary inputs")
        yield Diagnostic(
            "CIRC002",
            Severity.WARNING,
            f"dangling {ctx.circuit.kind(nid).value}: " + " and ".join(reasons),
            ctx.loc(nid),
        )


@rule(
    "CIRC003",
    "fanin-width",
    Severity.ERROR,
    "circuit",
    "A gate with more than K fanins cannot be covered by a K-LUT; run "
    "gate decomposition first.",
)
def check_fanin_width(ctx: CircuitContext) -> Iterator[Diagnostic]:
    for g in ctx.circuit.gates:
        width = len(ctx.circuit.fanins(g))
        if width > ctx.k:
            yield Diagnostic(
                "CIRC003",
                Severity.ERROR,
                f"gate has {width} fanins > K={ctx.k}",
                ctx.loc(g),
                data={"fanins": width, "k": ctx.k},
            )


@rule(
    "CIRC004",
    "edge-weight",
    Severity.ERROR,
    "circuit",
    "Edge weights are register counts and must be non-negative integers.",
)
def check_edge_weights(ctx: CircuitContext) -> Iterator[Diagnostic]:
    for nid in ctx.circuit.node_ids():
        for pin in ctx.circuit.fanins(nid):
            weight = pin.weight
            if not isinstance(weight, int) or isinstance(weight, bool):
                yield Diagnostic(
                    "CIRC004",
                    Severity.ERROR,
                    f"edge from {ctx.circuit.name_of(pin.src)!r} has "
                    f"non-integer weight {weight!r}",
                    ctx.loc(nid),
                )
            elif weight < 0:
                yield Diagnostic(
                    "CIRC004",
                    Severity.ERROR,
                    f"edge from {ctx.circuit.name_of(pin.src)!r} has "
                    f"negative weight {weight}",
                    ctx.loc(nid),
                    data={"weight": weight},
                )


@rule(
    "CIRC005",
    "io-discipline",
    Severity.ERROR,
    "circuit",
    "PIs have no fanins; POs have exactly one fanin, no fanouts, and "
    "are never read by another node.",
)
def check_io_discipline(ctx: CircuitContext) -> Iterator[Diagnostic]:
    offenders = io_discipline_offenders(ctx.circuit)
    messages = {
        "pi_with_fanins": "primary input has fanins",
        "po_bad_fanin_count": "primary output must have exactly one fanin",
        "po_with_fanouts": "primary output has fanouts",
        "reads_po": "node reads from a primary output",
    }
    for kind, nids in offenders.items():
        for nid in nids:
            yield Diagnostic(
                "CIRC005",
                Severity.ERROR,
                messages[kind],
                ctx.loc(nid),
                data={"violation": kind},
            )


@rule(
    "CIRC006",
    "duplicate-gate",
    Severity.INFO,
    "circuit",
    "Two gates computing the same function over the same fanin pins are "
    "structurally redundant; sharing one saves a LUT.",
)
def check_duplicate_gates(ctx: CircuitContext) -> Iterator[Diagnostic]:
    seen: Dict[Tuple[object, Tuple[Tuple[int, int], ...]], int] = {}
    for g in ctx.circuit.gates:
        func = ctx.circuit.func(g)
        if func is None:
            continue
        key = (func, tuple((p.src, p.weight) for p in ctx.circuit.fanins(g)))
        first = seen.setdefault(key, g)
        if first != g:
            yield Diagnostic(
                "CIRC006",
                Severity.INFO,
                f"duplicate gate definition: same function and fanins as "
                f"{ctx.circuit.name_of(first)!r}",
                ctx.loc(g),
                data={"duplicate_of": ctx.circuit.name_of(first)},
            )


@rule(
    "CIRC007",
    "gate-arity",
    Severity.ERROR,
    "circuit",
    "A gate's function arity must equal its fanin count (an unwired "
    "placeholder or a corrupted netlist otherwise).",
)
def check_gate_arity(ctx: CircuitContext) -> Iterator[Diagnostic]:
    for g in ctx.circuit.gates:
        func = ctx.circuit.func(g)
        width = len(ctx.circuit.fanins(g))
        if func is None:
            yield Diagnostic(
                "CIRC007",
                Severity.ERROR,
                "gate has no function",
                ctx.loc(g),
            )
        elif func.n != width:
            yield Diagnostic(
                "CIRC007",
                Severity.ERROR,
                f"function arity {func.n} != {width} fanins",
                ctx.loc(g),
                data={"arity": func.n, "fanins": width},
            )


def lint_circuit(ctx: CircuitContext) -> "list[Diagnostic]":
    """Run the full structural pack over one circuit context."""
    from repro.analysis.engine import run_rules

    return run_rules("circuit", ctx)
