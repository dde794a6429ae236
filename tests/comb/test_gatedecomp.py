"""Tests for K-bounding gate decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolfn.truthtable import TruthTable
from repro.comb.cone import cone_function
from repro.comb.gatedecomp import decompose_gate_function, k_bound_circuit
from repro.netlist.graph import SeqCircuit
from repro.rng import default_rng
from tests.helpers import AND2


def wide_gate_circuit(func: TruthTable, weights=None) -> SeqCircuit:
    c = SeqCircuit("wide")
    pis = [c.add_pi(f"x{i}") for i in range(func.n)]
    weights = weights or [0] * func.n
    g = c.add_gate("g", func, [(p, w) for p, w in zip(pis, weights)])
    c.add_po("o", g)
    return c


class TestDecomposeGateFunction:
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=(1 << (1 << 4)) - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_and_bounded(self, k, bits):
        func = TruthTable(4, bits)
        tree = decompose_gate_function(func, k)
        assert tree.max_fanin() <= k
        assert tree.to_truthtable() == func

    def test_wide_and(self):
        func = TruthTable.const(8, True)
        for i in range(8):
            func = func & TruthTable.var(i, 8)
        tree = decompose_gate_function(func, 2)
        assert tree.max_fanin() <= 2
        assert tree.to_truthtable() == func

    def test_random_function_k2(self):
        rng = default_rng(5)
        func = TruthTable.random(6, rng)
        tree = decompose_gate_function(func, 2)
        assert tree.max_fanin() <= 2
        assert tree.to_truthtable() == func

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            decompose_gate_function(AND2, 1)


class TestKBoundCircuit:
    def test_narrow_gates_untouched(self):
        c = wide_gate_circuit(AND2)
        out = k_bound_circuit(c, 2)
        assert out.n_gates == 1

    def test_wide_gate_split(self):
        func = TruthTable.from_function(5, lambda *xs: sum(xs) % 2 == 1)
        c = wide_gate_circuit(func)
        out = k_bound_circuit(c, 2)
        assert out.is_k_bounded(2)
        root = out.fanins(out.pos[0])[0].src
        assert cone_function(out, root, list(out.pis)) == func

    def test_weights_preserved_on_leaves(self):
        func = TruthTable.from_function(4, lambda *xs: sum(xs) >= 2)
        c = wide_gate_circuit(func, weights=[0, 1, 0, 2])
        out = k_bound_circuit(c, 2)
        assert out.is_k_bounded(2)
        assert out.n_ffs == c.n_ffs  # weights survive on the tree leaves

    def test_sequential_feedback_preserved(self):
        c = SeqCircuit("fb")
        a = c.add_pi("a")
        func = TruthTable.from_function(4, lambda *xs: sum(xs) % 2 == 1)
        g = c.add_gate_placeholder("g", func)
        c.set_fanins(g, [(a, 0), (g, 1), (g, 2), (a, 1)])
        c.add_po("o", g)
        out = k_bound_circuit(c, 2)
        assert out.is_k_bounded(2)
        out.check()
        # Total register count unchanged.
        assert out.n_ffs == c.n_ffs

    def test_names_preserved_for_roots(self):
        func = TruthTable.from_function(5, lambda *xs: all(xs))
        c = wide_gate_circuit(func)
        out = k_bound_circuit(c, 3)
        assert "g" in out  # root keeps the original name
