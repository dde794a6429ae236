"""Tests for flow-based height-constrained K-cuts on expanded circuits."""

import pytest

from repro.core.kcut import cut_on_expansion, find_height_cut
from repro.kernel.expand import expand_partial_packed
from repro.netlist.graph import SeqCircuit
from tests.helpers import AND2, BUF, oracle_height_cut, random_seq_circuit


def and_ring(num_gates, num_ffs=1):
    c = SeqCircuit("andring")
    xs = [c.add_pi(f"x{i}") for i in range(num_gates)]
    g = [c.add_gate_placeholder(f"g{i}", AND2) for i in range(num_gates)]
    for i in range(num_gates):
        w = num_ffs if i == 0 else 0
        c.set_fanins(g[i], [(g[(i - 1) % num_gates], w), (xs[i], 0)])
    c.add_po("o", g[-1])
    c.check()
    return c, xs, g


def label_list(c, labels):
    """Dense label list for ``c``: the given labels, 0 elsewhere."""
    return [labels.get(u, 0) for u in range(len(c))]


def height(labels, phi, u, w):
    return labels[u] - phi * w + 1


class TestFindHeightCut:
    def test_trivial_fanin_cut(self):
        c, xs, g = and_ring(4)
        labels = label_list(c, {v: 1 for v in g})
        cut = find_height_cut(c, g[1], 1, labels, threshold=2, max_cut=5)
        assert cut is not None
        assert set(cut) == {(g[0], 0), (xs[1], 0)}

    def test_deeper_cut_through_registers(self):
        c, xs, g = and_ring(4)
        labels = label_list(c, {v: 1 for v in g})
        # threshold 1 forces g0^0 (height 2) interior for root g1; the cut
        # must include the register crossing g3^1 and the PIs.
        cut = find_height_cut(c, g[1], 1, labels, threshold=1, max_cut=5)
        assert cut is not None
        assert (g[3], 1) in cut
        assert (xs[0], 0) in cut and (xs[1], 0) in cut

    def test_size_bound_enforced(self):
        c, xs, g = and_ring(8)
        labels = label_list(c, {v: 1 for v in g})
        # covering 3 ring gates needs 4+ inputs
        cut = find_height_cut(c, g[2], 1, labels, threshold=0, max_cut=3)
        assert cut is None

    def test_blocked_by_pi(self):
        c, xs, g = and_ring(3)
        labels = label_list(c, {v: 1 for v in g})
        # threshold far below any PI copy height: expansion blocked.
        cut = find_height_cut(c, g[0], 1, labels, threshold=-20, max_cut=10)
        assert cut is None

    def test_cut_heights_respect_threshold(self):
        c, xs, g = and_ring(6)
        labels = label_list(c, {g[i]: 1 + (i % 3) for i in range(6)})
        threshold = 2
        cut = find_height_cut(c, g[4], 2, labels, threshold, max_cut=15)
        assert cut is not None
        for (u, w) in cut:
            assert height(labels, 2, u, w) <= threshold

    def test_extra_depth_finds_shared_deep_cut(self):
        """The reconvergence case the first-crossing network misses.

        v reads p (w=0) and q (w=1); p reads x through one register and q
        reads x directly, so both converge on the copy x^1.  With labels
        making p interior and q a frontier candidate, the paper's network
        needs 2 cut nodes while expanding through q exposes the 1-node
        cut {x^1}.
        """
        c = SeqCircuit("reconv")
        pi = c.add_pi("pi")
        x = c.add_gate("x", BUF, [(pi, 0)])
        p = c.add_gate("p", BUF, [(x, 1)])
        q = c.add_gate("q", BUF, [(x, 0)])
        v = c.add_gate("v", AND2, [(p, 0), (q, 1)])
        c.add_po("o", v)
        labels = label_list(c, {pi: 0, x: 1, p: 2, q: 2, v: 2})
        shallow = find_height_cut(c, v, 1, labels, threshold=2, max_cut=1)
        deep = find_height_cut(
            c, v, 1, labels, threshold=2, max_cut=1, extra_depth=2
        )
        assert shallow is None  # first-crossing network needs 2 nodes
        assert deep is not None and len(deep) == 1
        assert deep[0] in [(x, 1), (pi, 1)]  # either shared deep copy works


    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("extra_depth", [0, 1])
    def test_matches_tuple_oracle(self, seed, extra_depth):
        """The packed query returns the tuple-copy flow oracle's cut for
        every gate, threshold around its label and cut bound."""
        from repro.core.labels import LabelSolver

        c = random_seq_circuit(4, 30, seed=seed, feedback=4)
        phi = 1
        while not (outcome := LabelSolver(c, 4, phi).run()).feasible:
            phi += 1
        labels = outcome.labels
        answered = 0
        for v in c.gates:
            for threshold in range(labels[v] - phi, labels[v] + 2):
                for max_cut in (4, 15):
                    got = find_height_cut(
                        c, v, phi, labels, threshold, max_cut, extra_depth
                    )
                    want = oracle_height_cut(
                        c, v, phi, labels, threshold, max_cut, extra_depth
                    )
                    assert got == want, (v, threshold, max_cut)
                    answered += got is not None
        assert answered > 0


class TestCutOnExpansion:
    def test_blocked_expansion(self):
        c, xs, g = and_ring(3)
        labels = label_list(c, {v: 1 for v in g})
        exp = expand_partial_packed(c.compiled(), g[0], 1, labels, threshold=-20)
        assert exp.blocked
        assert cut_on_expansion(exp, 10) is None

    def test_constant_cone(self):
        from repro.boolfn.truthtable import TruthTable

        c = SeqCircuit("const")
        one = c.add_gate("one", TruthTable.const(0, True), [])
        g = c.add_gate("g", BUF, [(one, 0)])
        c.add_po("o", g)
        labels = label_list(c, {one: 1, g: 1})
        exp = expand_partial_packed(c.compiled(), g, 1, labels, threshold=0)
        cut = cut_on_expansion(exp, 5)
        assert cut == []

    def test_duplicate_edges_rejected(self):
        """Repeated identical pins never reach the flow network: the
        compiled CSR keeps one pin per (driver, registers) pair, so the
        expansion carries each (child, parent) edge once."""
        c = SeqCircuit("dup")
        x = c.add_pi("x")
        d = c.add_gate("d", BUF, [(x, 0)])
        g = c.add_gate("g", AND2, [(d, 1), (d, 1)])
        c.add_po("o", g)
        labels = label_list(c, {d: 1, g: 1})
        exp = expand_partial_packed(
            c.compiled(), g, 1, labels, threshold=1, extra_depth=1
        )
        pairs = list(zip(exp.edges[::2], exp.edges[1::2]))
        assert len(pairs) == len(set(pairs))
        assert exp.candidates  # the flow path, not the frontier shortcut
        # max-volume: the LUT swallows d^1 and cuts at x^1
        assert cut_on_expansion(exp, 10) == [(x, 1)]
