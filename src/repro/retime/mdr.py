"""Maximum delay-to-register (MDR) ratio of a sequential circuit.

The paper's Problem 1 minimizes the MDR ratio: the maximum, over all
directed cycles ``C`` of the retiming graph, of ``d(C) / w(C)`` — total
gate delay over total register count.  By the retiming/pipelining theory
of Leiserson-Saxe [16] and Papaefthymiou [22], the clock period of a
circuit under retiming *and* pipelining is limited only by this quantity;
with unit gate delays the minimum achievable integer clock period is
``max(1, ceil(MDR))``.

One engine answers every MDR question: :func:`max_cycle_ratio` runs
Howard's policy iteration (Cochet-Terrasson et al. 1998; Dasdan, ACM
TODAES 2004) per strongly connected component, in exact integer
arithmetic.  A policy picks one out-edge per node; each policy cycle
fixes a ratio ``a/b`` for the nodes draining into it, and scaled
potentials ``x(u) = b*d(u) - a*w(u, pi(u)) + x(pi(u))`` (zero at the
cycle's smallest node).  Improvement first moves a node to a successor
of higher ratio, and otherwise to one whose edge raises its potential.
Values rise strictly and lexicographically at each step, so the
iteration ends; it ends with one ratio ``a/b`` per component and
integer potentials ``P`` satisfying ``P(u) >= b*d(u) - a*w + P(v)`` on
every edge inside it.  Summing those inequalities around any cycle
proves ``d(C)/w(C) <= a/b``, and a policy cycle attains it — so the
result is its own certificate (checked independently by RET003 in
:mod:`repro.analysis.certify`).  A register-free cycle shows up as a
policy cycle with ``w = 0`` and raises ``ValueError``.

:func:`min_feasible_period`, :func:`mdr_ratio` and
:func:`critical_ratio_cycle` are reads of that one result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.netlist.graph import SeqCircuit


@dataclass
class CycleRatio:
    """The exact MDR of a circuit with its dual certificate.

    ``groups[v]`` is the index of ``v``'s strongly connected component,
    numbered in topological order of the condensation (every edge
    between components runs forward).  ``group_ratios[g]`` is that
    component's maximum cycle ratio, or ``None`` when it holds no cycle.
    ``potentials[v]`` is scaled by the denominator of ``v``'s component
    ratio (0 outside cycles).  ``cycle`` is one critical cycle as
    ``(node, registers on the edge to the next node)`` pairs.
    """

    ratio: Optional[Fraction]
    cycle: List[Tuple[int, int]]
    potentials: List[int]
    groups: List[int]
    group_ratios: List[Optional[Fraction]]

    @property
    def bound(self) -> int:
        """``max(1, ceil(ratio))``: the smallest feasible integer period."""
        if self.ratio is None:
            return 1
        return max(1, math.ceil(self.ratio))


def _howard(
    delays: List[int], succ: List[List[Tuple[int, int]]]
) -> Tuple[Fraction, List[int], List[Tuple[int, int]]]:
    """Max cycle ratio of one strongly connected graph (local ids).

    ``succ[u]`` lists ``(v, w)`` out-edges, one per distinct head (the
    lightest pin).  Returns ``(a/b, potentials scaled by b, cycle)``.
    """
    m = len(delays)
    # Initial policy: the lightest out-edge (prefers short-register loops).
    policy = [min(out, key=lambda e: e[1]) for out in succ]
    while True:
        # -- value determination --------------------------------------
        num = [0] * m
        den = [0] * m
        x = [0] * m
        state = [0] * m  # 0 new, 1 on the current walk, 2 valued
        cycles: List[List[int]] = []
        for start in range(m):
            if state[start]:
                continue
            walk: List[int] = []
            v = start
            while not state[v]:
                state[v] = 1
                walk.append(v)
                v = policy[v][0]
            if state[v] == 1:  # closed a new policy cycle at v
                at = walk.index(v)
                cycle = walk[at:]
                total_d = sum(delays[u] for u in cycle)
                total_w = sum(policy[u][1] for u in cycle)
                if total_w == 0:
                    raise ValueError(
                        "combinational cycle: MDR ratio is unbounded"
                    )
                g = math.gcd(total_d, total_w)
                # Deterministic handle (smallest node): a cycle that
                # survives an improvement keeps its potentials.
                h = cycle.index(min(cycle))
                head = cycle[h]
                num[head], den[head] = total_d // g, total_w // g
                x[head], state[head] = 0, 2
                # The rest of the cycle, valued backwards from the head.
                walk[at:] = cycle[h + 1 :] + cycle[:h]
                cycles.append(cycle)
            for u in reversed(walk):
                nxt, w = policy[u]
                a, b = num[nxt], den[nxt]
                num[u], den[u] = a, b
                x[u] = b * delays[u] - a * w + x[nxt]
                state[u] = 2
        # -- improvement 1: move to a successor of higher ratio ----------
        changed = False
        for u in range(m):
            a, b = num[u], den[u]
            best = None
            for edge in succ[u]:
                v = edge[0]
                if num[v] * b > a * den[v]:
                    a, b, best = num[v], den[v], edge
            if best is not None:
                policy[u] = best
                changed = True
        if changed:
            continue
        # -- improvement 2: same ratio, higher potential ----------------
        for u in range(m):
            a, b = num[u], den[u]
            top = x[u]
            best = None
            base = b * delays[u]
            for edge in succ[u]:
                v, w = edge
                if num[v] == a and den[v] == b:
                    cand = base - a * w + x[v]
                    if cand > top:
                        top, best = cand, edge
            if best is not None:
                policy[u] = best
                changed = True
        if not changed:
            # Every component now drains into one ratio (an SCC has no
            # edge to a lower-ratio node), so any policy cycle is critical.
            critical = [(u, policy[u][1]) for u in cycles[0]]
            return Fraction(num[0], den[0]), x, critical


def max_cycle_ratio(circuit: SeqCircuit) -> CycleRatio:
    """The exact MDR ratio, a critical cycle and certifying potentials.

    Raises ``ValueError`` when a register-free (combinational) cycle
    makes the ratio unbounded.
    """
    n = len(circuit)
    delays = [circuit.node(v).delay for v in range(n)]
    comps = circuit.sccs()
    groups = [0] * n
    local = [0] * n
    for g, members in enumerate(comps):
        for i, v in enumerate(members):
            groups[v] = g
            local[v] = i
    # Lightest pin per (src, dst) inside a component: heavier parallel
    # pins can never carry a more critical cycle.
    cyclic = [False] * len(comps)
    lightest: List[Dict[int, int]] = [{} for _ in range(n)]
    for src, dst, w in circuit.edges():
        g = groups[src]
        if g != groups[dst]:
            continue
        cyclic[g] = True
        heads = lightest[src]
        if dst not in heads or w < heads[dst]:
            heads[dst] = w
    potentials = [0] * n
    group_ratios: List[Optional[Fraction]] = [None] * len(comps)
    best_ratio: Optional[Fraction] = None
    best_cycle: List[Tuple[int, int]] = []
    for g, members in enumerate(comps):
        if not cyclic[g]:
            continue  # a single node without a self-loop
        succ = [
            [(local[v], w) for v, w in lightest[u].items()] for u in members
        ]
        ratio, x, cycle = _howard([delays[u] for u in members], succ)
        group_ratios[g] = ratio
        for i, u in enumerate(members):
            potentials[u] = x[i]
        if best_ratio is None or ratio > best_ratio:
            best_ratio = ratio
            best_cycle = [(members[i], w) for i, w in cycle]
    return CycleRatio(best_ratio, best_cycle, potentials, groups, group_ratios)


def min_feasible_period(circuit: SeqCircuit) -> int:
    """Smallest integer ``phi`` with no cycle ``d(C) > phi * w(C)``.

    This is the minimum clock period achievable by LUT-count-preserving
    retiming plus pipelining (unit delay model): ``max(1, ceil(MDR))``.
    Raises ``ValueError`` when a zero-weight (combinational) cycle
    exists.
    """
    return max_cycle_ratio(circuit).bound


def mdr_ratio(circuit: SeqCircuit) -> Fraction:
    """Exact maximum cycle ratio ``max_C d(C) / w(C)`` (0 when acyclic)."""
    ratio = max_cycle_ratio(circuit).ratio
    return ratio if ratio is not None else Fraction(0, 1)


def critical_ratio_cycle(circuit: SeqCircuit) -> Optional[List[int]]:
    """One cycle achieving the MDR ratio, as a node list (or ``None``).

    Used by diagnostics and the examples; any of several equally
    critical cycles may be returned.
    """
    result = max_cycle_ratio(circuit)
    if not result.ratio:
        return None
    return [v for v, _w in result.cycle]
