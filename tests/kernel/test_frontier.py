"""Frontier cuts vs an explicit node-split max-flow oracle.

A candidate-free expansion (every query at ``extra_depth=0``) is
answered from its frontier without a flow solve
(:func:`repro.kernel.expand.frontier_cut`).  These differential tests
hold both cut entry points — :func:`cut_on_packed` and
:func:`cut_on_expansion` — to an oracle that builds the split network of
the tuple-copy expansion and solves it with both flow solvers, on
seeded random circuits, every gate, thresholds around its label,
``extra_depth`` 0 and 1, and ``max_cut`` K and 15.
"""

import pytest

from repro.comb.maxflow import FlowNetwork
from repro.core.kcut import cut_on_expansion
from repro.core.labels import LabelSolver
from repro.kernel.dinic import DinicNetwork
from repro.kernel.expand import (
    PackedCutArena,
    PackedExpansion,
    cut_on_packed,
    expand_partial_packed,
    frontier_cut,
)
from tests.helpers import (
    ek_packed_arena,
    expand_partial,
    oracle_cut,
    random_seq_circuit,
)

K = 4


def _labelled(seed):
    """A random circuit with its converged labels at the minimum phi."""
    circuit = random_seq_circuit(4, 40, seed=seed, feedback=4)
    phi = 1
    while True:
        outcome = LabelSolver(circuit, K, phi).run()
        if outcome.feasible:
            return circuit, phi, outcome.labels
        phi += 1


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("extra_depth", [0, 1])
def test_cut_entry_points_match_the_flow_oracle(seed, extra_depth):
    circuit, phi, labels = _labelled(seed)
    cc = circuit.compiled()
    arenas = {"dinic": PackedCutArena(), "ek": ek_packed_arena()}

    def height_of(u, w):
        return labels[u] - phi * w + 1

    answered = frontier = 0
    for v in circuit.gates:
        for threshold in range(labels[v] - phi, labels[v] + 2):
            obj = expand_partial(
                circuit, v, phi, height_of, threshold, extra_depth
            )
            packed = expand_partial_packed(
                cc, v, phi, labels, threshold, extra_depth
            )
            for max_cut in (K, 15):
                want = oracle_cut(obj, max_cut, DinicNetwork())
                assert oracle_cut(obj, max_cut, FlowNetwork()) == want
                assert cut_on_expansion(packed, max_cut) == want
                for arena in (None, *arenas.values()):
                    got = cut_on_packed(packed, max_cut, arena)
                    if got is not None:
                        got = sorted(packed.unpack_copies(got))
                    assert got == want, (v, threshold, max_cut, arena)
                answered += want is not None
                frontier += not obj.candidates and not obj.blocked
    assert answered > 0
    assert frontier > 0
    if extra_depth == 0:
        # The paper's construction never has candidates: every unblocked
        # query is a frontier answer.
        assert arenas["dinic"].drain_counters() == (0, 0)
        assert arenas["ek"].net.num_nodes == 0


class TestFrontierCut:
    def _packed(self, leaves, shift=4):
        exp = PackedExpansion(root=0, shift=shift)
        exp.interior.append(0)
        for p in leaves:
            exp.leaves.append(p)
            exp.edges.extend((p, 0))
        return exp

    def test_leaf_count_is_the_bound(self):
        leaves = self._packed([1, 2, 3]).leaves
        assert frontier_cut(leaves, 2) is None
        assert frontier_cut(leaves, 3) == [1, 2, 3]

    def test_packed_leaves_sort_by_node_then_registers(self):
        # (u, w) packs to (w << 4) | u: (2, 0) = 2, (1, 1) = 17, (1, 0) = 1.
        # The packed answer keeps expansion order; only the decoded cut
        # that mapping and resynthesis read is sorted.
        exp = self._packed([2, 17, 1])
        assert frontier_cut(exp.leaves, 5) == [2, 17, 1]
        assert cut_on_expansion(exp, 5) == [(1, 0), (1, 1), (2, 0)]

    def test_empty_frontier_is_the_zero_input_cut(self):
        assert frontier_cut(self._packed([]).leaves, 0) == []

    def test_dinic_arena_stays_idle_on_frontier_answers(self):
        arena = PackedCutArena()
        assert cut_on_packed(self._packed([1, 2]), 5, arena) == [1, 2]
        assert arena.drain_counters() == (0, 0)
        assert arena.net.num_nodes == 0
