"""SeqMapII-style label computation (Pan-Liu [19, 21]) — the slow baseline.

SeqMapII introduced the optimal-clock-period formulation TurboMap builds
on; its practical weakness is the iteration schedule: labels of *all*
nodes are updated in global rounds until a fixpoint, with the
conservative ``n^2``-round stopping rule for infeasible targets and no
reuse of flow queries between rounds.  TurboMap [11] reported a ~2x10^4
speedup from the partial flow networks, the SCC-topological schedule and
(in this paper) positive loop detection.

This module reproduces the *schedule* regressions faithfully on top of
the same cut oracle:

* one global round updates every gate (no SCC decomposition, so upstream
  labels keep invalidating downstream work);
* no memoization — every update pays a fresh expansion + max-flow;
* termination only by global fixpoint or the ``n^2`` round bound.

``benchmarks/bench_seqmap2.py`` quantifies what TurboMap's engineering
buys at equal answers (both decide feasibility identically).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.kcut import find_height_cut
from repro.core.labels import LabelOutcome, LabelStats
from repro.netlist.graph import SeqCircuit
from repro.netlist.validate import ensure_mappable
from repro.retime.mdr import min_feasible_period


class SeqMap2Solver:
    """Global-round label computation with the ``n^2`` stopping rule."""

    def __init__(self, circuit: SeqCircuit, k: int, phi: int) -> None:
        if phi < 1:
            raise ValueError("target clock period must be at least 1")
        self.circuit = circuit
        self.k = k
        self.phi = phi
        self.stats = LabelStats()
        self.labels: List[int] = [0] * len(circuit)
        for g in circuit.gates:
            self.labels[g] = 1

    def _update(self, v: int) -> bool:
        self.stats.updates += 1
        pins = self.circuit.fanins(v)
        if not pins:
            return False
        big_l = max(self.labels[p.src] - self.phi * p.weight for p in pins)
        if big_l < self.labels[v]:
            return False
        self.stats.flow_queries += 1
        cut = find_height_cut(self.circuit, v, self.phi, self.labels, big_l, self.k)
        new = big_l if cut is not None else big_l + 1
        if new > self.labels[v]:
            self.labels[v] = new
            return True
        return False

    def run(self, max_rounds: Optional[int] = None) -> LabelOutcome:
        gates = self.circuit.gates
        n = max(1, len(gates))
        rounds = max_rounds if max_rounds is not None else n * n + 2
        for _round in range(rounds):
            self.stats.rounds += 1
            changed = False
            for v in gates:
                if self._update(v):
                    changed = True
            if not changed:
                return LabelOutcome(
                    feasible=True, labels=self.labels, stats=self.stats
                )
        return LabelOutcome(
            feasible=False,
            labels=self.labels,
            stats=self.stats,
            failed_scc=list(gates),
        )


@dataclass
class SeqMap2Result:
    phi: int
    labels: List[int]
    stats: LabelStats


def seqmap2_min_phi(
    circuit: SeqCircuit, k: int, upper_bound: Optional[int] = None
) -> SeqMap2Result:
    """Binary search the minimum feasible period with the slow schedule.

    Decision-equivalent to TurboMap (same cut oracle); only the cost
    differs.  Intended for the comparison benchmark on small circuits —
    the ``n^2`` rule makes infeasible probes quadratic.
    """
    ensure_mappable(circuit, k)
    ub = upper_bound if upper_bound is not None else min_feasible_period(circuit)
    total = LabelStats()
    best_labels: Optional[List[int]] = None

    def probe(phi: int) -> Optional[List[int]]:
        outcome = SeqMap2Solver(circuit, k, phi).run()
        total.rounds += outcome.stats.rounds
        total.updates += outcome.stats.updates
        total.flow_queries += outcome.stats.flow_queries
        return outcome.labels if outcome.feasible else None

    lo, hi = 1, max(1, ub)
    labels_hi = probe(hi)
    while labels_hi is None:  # pragma: no cover - ub is always feasible
        hi *= 2
        labels_hi = probe(hi)
    best_labels = labels_hi
    best_phi = hi
    while lo < hi:
        mid = (lo + hi) // 2
        labels = probe(mid)
        if labels is not None:
            hi = mid
            best_phi = mid
            best_labels = labels
        else:
            lo = mid + 1
    return SeqMap2Result(phi=best_phi, labels=best_labels, stats=total)
