"""Packed expansion / packed cut queries vs the tuple-copy oracle.

Differential tests: the packed construction must classify the same
copies into the same tiers and return the same cuts as the tuple-copy
``expand_partial`` + ``flow_cut`` of ``tests/helpers.py`` for every
query, on the Dinic arena and on the Edmonds-Karp reference.
"""

import pytest

from repro.bench import suite as bench_suite
from repro.core.expanded import ExpansionOverflow
from repro.core.kcut import cut_on_expansion
from repro.core.labels import LabelSolver
from repro.kernel.csr import KIND_GATE
from repro.kernel.expand import (
    PackedCutArena,
    cut_on_packed,
    expand_partial_packed,
)
from tests.helpers import ek_packed_arena, expand_partial, flow_cut


def tuple_cut(expansion, max_cut):
    """The tuple-copy oracle's answer to a cut query."""
    return None if expansion.blocked else flow_cut(expansion, max_cut)


def _solved(name, k=5):
    """A suite circuit with its labels at the smallest feasible phi."""
    circuit = bench_suite.build(name)
    phi = 1
    while True:
        outcome = LabelSolver(circuit, k, phi).run()
        if outcome.feasible:
            return circuit, phi, outcome.labels
        phi += 1


@pytest.fixture(scope="module")
def solved_bbara():
    return _solved("bbara")


def _copy_set(expansion, copies):
    return set(expansion.unpack_copies(copies))


class TestExpansionDifferential:
    @pytest.mark.parametrize("extra_depth", [0, 1])
    def test_tiers_and_edges_match(self, solved_bbara, extra_depth):
        circuit, phi, labels = solved_bbara
        cc = circuit.compiled()

        def height_of(u, w):
            return labels[u] - phi * w + 1

        for v in circuit.gates:
            threshold = labels[v]
            obj = expand_partial(
                circuit, v, phi, height_of, threshold, extra_depth
            )
            packed = expand_partial_packed(
                cc, v, phi, labels, threshold, extra_depth
            )
            assert packed.blocked == obj.blocked
            assert _copy_set(packed, packed.interior) == set(obj.interior)
            assert _copy_set(packed, packed.candidates) == set(obj.candidates)
            assert _copy_set(packed, packed.leaves) == set(obj.leaves)
            if packed.blocked:
                continue
            pairs = packed.unpack_copies(packed.edges)
            packed_edges = {
                (pairs[i], pairs[i + 1]) for i in range(0, len(pairs), 2)
            }
            assert packed_edges == set(obj.edges)

    def test_root_must_be_gate(self, solved_bbara):
        circuit, phi, labels = solved_bbara
        cc = circuit.compiled()
        pi = circuit.pis[0]
        with pytest.raises(ValueError, match="rooted at gates"):
            expand_partial_packed(cc, pi, phi, labels, 1)

    def test_overflow_matches_object_engine(self, solved_bbara):
        circuit, phi, labels = solved_bbara
        cc = circuit.compiled()

        def height_of(u, w):
            return labels[u] - phi * w + 1

        for v in circuit.gates:
            threshold = labels[v]
            try:
                expand_partial(
                    circuit, v, phi, height_of, threshold, max_copies=3
                )
                overflowed = False
            except ExpansionOverflow:
                overflowed = True
            if not overflowed:
                continue
            with pytest.raises(ExpansionOverflow):
                expand_partial_packed(
                    cc, v, phi, labels, threshold, max_copies=3
                )
            return
        pytest.skip("no gate overflows at max_copies=3")


class TestCutDifferential:
    @pytest.mark.parametrize("flow", ["dinic", "ek"])
    def test_cuts_match_object_engine(self, solved_bbara, flow):
        circuit, phi, labels = solved_bbara
        cc = circuit.compiled()
        k = 5

        def height_of(u, w):
            return labels[u] - phi * w + 1

        arena = PackedCutArena() if flow == "dinic" else ek_packed_arena()
        compared = 0
        for v in circuit.gates:
            threshold = labels[v]
            obj = expand_partial(circuit, v, phi, height_of, threshold)
            packed = expand_partial_packed(cc, v, phi, labels, threshold)
            obj_cut = tuple_cut(obj, k)
            packed_cut = cut_on_packed(packed, k, arena=arena)
            if packed_cut is None:
                assert obj_cut is None
            else:
                assert sorted(packed.unpack_copies(packed_cut)) == obj_cut
                compared += 1
        assert compared > 0

    def test_kcut_dispatches_packed_expansions(self, solved_bbara):
        """cut_on_expansion answers on a PackedExpansion, unpacks and
        sorts by ``(u, w)``."""
        circuit, phi, labels = solved_bbara
        cc = circuit.compiled()
        v = circuit.gates[0]
        packed = expand_partial_packed(cc, v, phi, labels, labels[v])
        via_dispatch = cut_on_expansion(packed, 5)
        direct = cut_on_packed(packed, 5)
        expected = (
            None if direct is None else sorted(packed.unpack_copies(direct))
        )
        assert via_dispatch == expected

    def test_limit_agreement(self, solved_bbara):
        """Tight max_cut: both engines agree on None-vs-cut, and the
        returned cuts are identical."""
        circuit, phi, labels = solved_bbara
        cc = circuit.compiled()

        def height_of(u, w):
            return labels[u] - phi * w + 1

        for max_cut in (1, 2):
            for v in circuit.gates[:40]:
                threshold = labels[v]
                obj = expand_partial(circuit, v, phi, height_of, threshold)
                packed = expand_partial_packed(cc, v, phi, labels, threshold)
                obj_cut = tuple_cut(obj, max_cut)
                packed_cut = cut_on_packed(packed, max_cut)
                if obj_cut is None:
                    assert packed_cut is None
                else:
                    assert sorted(packed.unpack_copies(packed_cut)) == obj_cut

    def test_gate_kind_codes_agree(self, solved_bbara):
        circuit, _, _ = solved_bbara
        cc = circuit.compiled()
        gates = {u for u in range(cc.n) if cc.kinds[u] == KIND_GATE}
        assert gates == set(circuit.gates)
