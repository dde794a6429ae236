"""Tests for predecessor-graph positive loop detection."""

import pytest

from repro.core.labels import LabelSolver
from repro.core.pld import has_seed
from repro.netlist.graph import SeqCircuit
from repro.rng import default_rng
from tests.helpers import (
    AND2,
    grounded_members,
    justified_predecessors,
    random_seq_circuit,
)


def and_ring(num_gates, num_ffs=1):
    c = SeqCircuit("andring")
    xs = [c.add_pi(f"x{i}") for i in range(num_gates)]
    g = [c.add_gate_placeholder(f"g{i}", AND2) for i in range(num_gates)]
    for i in range(num_gates):
        w = num_ffs if i == 0 else 0
        c.set_fanins(g[i], [(g[(i - 1) % num_gates], w), (xs[i], 0)])
    c.add_po("o", g[-1])
    c.check()
    return c


class TestJustifiedPredecessors:
    def test_trivial_label_has_no_predecessors(self):
        c = and_ring(4)
        labels = [0] * len(c)
        for g in c.gates:
            labels[g] = 1
        assert justified_predecessors(c, labels, 1, c.gates[0]) == []

    def test_justifier_found(self):
        c = and_ring(4)
        labels = [0] * len(c)
        g = c.gates
        # l(g1)=2 justified by g0 (l=2, w=0: 2-0+1=3 >= 2).
        labels[g[0]] = 2
        labels[g[1]] = 2
        preds = justified_predecessors(c, labels, 1, g[1])
        assert g[0] in preds

    def test_register_discount(self):
        c = and_ring(4)
        labels = [0] * len(c)
        g = c.gates
        # edge g3 -> g0 carries 1 FF; with phi=2: l(g3)-2+1 >= l(g0)?
        labels[g[3]] = 4
        labels[g[0]] = 4
        preds = justified_predecessors(c, labels, 2, g[0])
        assert g[3] not in preds  # 4 - 2 + 1 = 3 < 4
        labels[g[3]] = 5
        preds = justified_predecessors(c, labels, 2, g[0])
        assert g[3] in preds  # 5 - 2 + 1 = 4 >= 4


class TestGroundedMembers:
    def test_low_labels_grounded(self):
        c = and_ring(4)
        labels = [0] * len(c)
        for g in c.gates:
            labels[g] = 1
        members = list(c.gates)
        assert set(grounded_members(c, labels, 1, members, set(members))) == set(
            members
        )

    def test_isolated_scc_detected(self):
        c = and_ring(3)
        g = c.gates
        labels = [0] * len(c)
        # Self-sustained high labels: every node justified only in-ring.
        labels[g[0]], labels[g[1]], labels[g[2]] = 10, 11, 12
        # ring edge g2 -> g0 has w=1, phi=1: 12-1+1=12 >= 10 justifies g0;
        # g0 -> g1: 10+1 >= 11; g1 -> g2: 11+1 >= 12; PIs justify nothing.
        grounded = grounded_members(c, labels, 1, list(g), set(g))
        assert grounded == set()

    def test_outside_justification_grounds_chain(self):
        c = and_ring(3)
        g = c.gates
        labels = [0] * len(c)
        # g0 justified by its PI (l=0: 0+1 >= 1 requires l(g0) <= 1): use
        # l(g0)=1 -> trivially grounded; ring propagates groundedness.
        labels[g[0]], labels[g[1]], labels[g[2]] = 1, 2, 3
        grounded = grounded_members(c, labels, 1, list(g), set(g))
        assert grounded == set(g)


class TestSeedScan:
    """The solver's seed scan answers exactly ``bool(grounded_members)``."""

    @staticmethod
    def _circuit(seed):
        c = random_seq_circuit(4, 24, seed=seed, feedback=6)
        rng = default_rng(seed)
        gates = c.gates
        for _ in range(2):  # registered self-loops, alone or in an SCC
            g = gates[int(rng.integers(0, len(gates)))]
            c.rewire_pin(g, int(rng.integers(0, 2)), g, 1)
        return c, rng

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_grounded_set(self, seed):
        c, rng = self._circuit(seed)
        schedule = c.scc_schedule()
        cc = c.compiled()
        cyclic = [
            (sid, item)
            for sid, item in enumerate(schedule.sccs)
            if not isinstance(item, int)
        ]
        assert cyclic
        assert any(len(members) == 1 for _sid, members in cyclic)
        verdicts = set()
        for trial in range(60):
            phi = int(rng.integers(1, 4))
            labels = [0] * len(c)
            for g in c.gates:
                labels[g] = int(rng.integers(0, 12))
            for sid, members in cyclic:
                if trial % 3 == 0:
                    # Fully isolated: every member above 1, everything
                    # outside the SCC at 0 (no outside justifier).
                    labels = [0] * len(c)
                    for v in members:
                        labels[v] = int(rng.integers(2, 12))
                elif trial % 3 == 1:
                    labels[members[int(rng.integers(0, len(members)))]] = 1
                want = bool(
                    grounded_members(c, labels, phi, members, set(members))
                )
                got = has_seed(cc, schedule.scc_of, labels, phi, members, sid)
                assert got == want, (seed, trial, sid)
                verdicts.add(want)
        assert verdicts == {True, False}


class TestEndToEnd:
    @pytest.mark.parametrize("seed", range(6))
    def test_pld_never_changes_the_answer(self, seed):
        c = random_seq_circuit(4, 18, seed=seed, feedback=4)
        for k in (2, 4):
            for phi in (1, 2, 4):
                a = LabelSolver(c, k=k, phi=phi, pld=True).run().feasible
                b = LabelSolver(c, k=k, phi=phi, pld=False).run().feasible
                assert a == b, (seed, k, phi)

    def test_large_infeasible_ring_speedup(self):
        c = and_ring(24, 1)
        fast = LabelSolver(c, k=3, phi=3, pld=True).run()
        slow = LabelSolver(c, k=3, phi=3, pld=False).run()
        assert not fast.feasible and not slow.feasible
        # 6n + patience vs n^2 rounds.
        assert fast.stats.rounds <= 6 * 24 + 3
        assert slow.stats.rounds >= 24 * 24
        assert fast.stats.rounds * 3 < slow.stats.rounds
