"""Tests for flow-based height-constrained K-cuts on expanded circuits."""

import pytest

from repro.core.kcut import cut_on_expansion, find_height_cut
from repro.core.expanded import expand_partial
from repro.netlist.graph import SeqCircuit
from tests.helpers import AND2, BUF


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


def make_height(labels, phi):
    return lambda u, w: labels.get(u, 0) - phi * w + 1


class TestFindHeightCut:
    def test_trivial_fanin_cut(self):
        c, xs, g = and_ring(4)
        labels = {v: 1 for v in g}
        cut = find_height_cut(c, g[1], 1, make_height(labels, 1), threshold=2, max_cut=5)
        assert cut is not None
        assert set(cut) == {(g[0], 0), (xs[1], 0)}

    def test_deeper_cut_through_registers(self):
        c, xs, g = and_ring(4)
        labels = {v: 1 for v in g}
        # threshold 1 forces g0^0 (height 2) interior for root g1; the cut
        # must include the register crossing g3^1 and the PIs.
        cut = find_height_cut(c, g[1], 1, make_height(labels, 1), threshold=1, max_cut=5)
        assert cut is not None
        assert (g[3], 1) in cut
        assert (xs[0], 0) in cut and (xs[1], 0) in cut

    def test_size_bound_enforced(self):
        c, xs, g = and_ring(8)
        labels = {v: 1 for v in g}
        # covering 3 ring gates needs 4+ inputs
        cut = find_height_cut(c, g[2], 1, make_height(labels, 1), threshold=0, max_cut=3)
        assert cut is None

    def test_blocked_by_pi(self):
        c, xs, g = and_ring(3)
        labels = {v: 1 for v in g}
        # threshold far below any PI copy height: expansion blocked.
        cut = find_height_cut(
            c, g[0], 1, make_height(labels, 1), threshold=-20, max_cut=10
        )
        assert cut is None

    def test_cut_heights_respect_threshold(self):
        c, xs, g = and_ring(6)
        labels = {g[i]: 1 + (i % 3) for i in range(6)}
        height = make_height(labels, 2)
        threshold = 2
        cut = find_height_cut(c, g[4], 2, height, threshold, max_cut=15)
        assert cut is not None
        for (u, w) in cut:
            assert height(u, w) <= threshold

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
        labels = {pi: 0, x: 1, p: 2, q: 2, v: 2}
        height = make_height(labels, 1)
        shallow = find_height_cut(c, v, 1, height, threshold=2, max_cut=1)
        deep = find_height_cut(
            c, v, 1, height, threshold=2, max_cut=1, extra_depth=2
        )
        assert shallow is None  # first-crossing network needs 2 nodes
        assert deep is not None and len(deep) == 1
        assert deep[0] in [(x, 1), (pi, 1)]  # either shared deep copy works


class TestCutOnExpansion:
    def test_blocked_expansion(self):
        c, xs, g = and_ring(3)
        labels = {v: 1 for v in g}
        exp = expand_partial(c, g[0], 1, make_height(labels, 1), threshold=-20)
        assert exp.blocked
        assert cut_on_expansion(exp, 10) is None

    def test_constant_cone(self):
        from repro.boolfn.truthtable import TruthTable

        c = SeqCircuit("const")
        one = c.add_gate("one", TruthTable.const(0, True), [])
        g = c.add_gate("g", BUF, [(one, 0)])
        c.add_po("o", g)
        labels = {one: 1, g: 1}
        exp = expand_partial(c, g, 1, make_height(labels, 1), threshold=0)
        cut = cut_on_expansion(exp, 5)
        assert cut == []

    def test_duplicate_edges_rejected(self):
        c, xs, g = and_ring(3)
        labels = {v: 1 for v in g}
        exp = expand_partial(c, g[1], 1, make_height(labels, 1), threshold=2)
        exp.edges.append(exp.edges[0])
        with pytest.raises(AssertionError, match="duplicate"):
            cut_on_expansion(exp, 10)
