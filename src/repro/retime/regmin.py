"""Register minimization among equal-period retimings.

The paper delegates flip-flop minimization to retiming [16]: among all
legal retimings meeting the clock period, Leiserson-Saxe's secondary
objective picks one minimizing the register count (with fanout sharing:
a driver whose fanout edges carry ``w1..wm`` registers costs
``max(wi)``).  The exact optimum is a min-cost-flow problem; this module
implements the classical *incremental* relaxation instead: starting from
any feasible lag vector, repeatedly shift single-node lags by ±1 when
that preserves legality and the period and lowers the shared register
cost, until a local fixpoint.  On the circuits of this project the local
optimum recovers most of the exact gain at a fraction of the machinery;
the cost function and the invariants are exact, only optimality is
heuristic (documented, tested as monotone non-increasing and against an
exact total-edge-weight LP that lives with the tests as an oracle).
"""

from __future__ import annotations

from typing import List, Optional

from repro.netlist.graph import NodeKind, SeqCircuit
from repro.retime.leiserson import RetimingResult, feas


def shared_register_cost(circuit: SeqCircuit, r: List[int]) -> int:
    """Register count of the retimed circuit, with fanout sharing."""
    total = 0
    for v in circuit.node_ids():
        best = 0
        for dst, w in circuit.fanouts(v):
            best = max(best, w + r[dst] - r[v])
        total += best
    return total


def _move_ok(
    circuit: SeqCircuit,
    r: List[int],
    v: int,
    delta: int,
    phi: int,
) -> bool:
    """Would shifting ``r[v]`` by ``delta`` stay legal and meet ``phi``?

    Legality is local (edge weights at ``v``); the period check is global
    but cheap: recompute arrival times once.
    """
    r[v] += delta
    try:
        for pin in circuit.fanins(v):
            if pin.weight + r[v] - r[pin.src] < 0:
                return False
        for dst, w in circuit.fanouts(v):
            if w + r[dst] - r[v] < 0:
                return False
        retimed = circuit.apply_retiming(r)
        return retimed.clock_period() <= phi
    except ValueError:
        return False
    finally:
        r[v] -= delta


def minimize_registers(
    circuit: SeqCircuit,
    phi: int,
    r: Optional[List[int]] = None,
    max_passes: int = 8,
) -> RetimingResult:
    """A register-lean legal retiming with clock period ``<= phi``.

    Starts from ``r`` (or a pipelined FEAS solution) and hill-climbs
    single-node lag moves.  Gates only; PIs stay anchored and POs move
    only through the legality-preserving moves, so pipeline latencies can
    shrink but never break.
    """
    if r is None:
        r = feas(circuit, phi, allow_pipelining=True)
        if r is None:
            raise ValueError(f"{circuit.name}: period {phi} infeasible")
    r = list(r)
    movable = [
        v
        for v in circuit.node_ids()
        if circuit.kind(v) is not NodeKind.PI
    ]
    cost = shared_register_cost(circuit, r)
    for _ in range(max_passes):
        improved = False
        for v in movable:
            for delta in (-1, 1):
                if not _move_ok(circuit, r, v, delta, phi):
                    continue
                r[v] += delta
                new_cost = shared_register_cost(circuit, r)
                if new_cost < cost:
                    cost = new_cost
                    improved = True
                else:
                    r[v] -= delta
        if not improved:
            break
    retimed = circuit.apply_retiming(r, name=f"{circuit.name}_regmin{phi}")
    base = min((r[pi] for pi in circuit.pis), default=0)
    po_lags = {circuit.name_of(po): r[po] - base for po in circuit.pos}
    return RetimingResult(
        circuit=retimed,
        r=r,
        period=retimed.clock_period(),
        po_lags=po_lags,
    )

