"""Property tests for retiming-graph transformations (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.graph import NodeKind
from repro.retime.mdr import mdr_ratio
from tests.helpers import random_seq_circuit

seeds = st.integers(min_value=0, max_value=5000)

FAST = settings(max_examples=25, deadline=None)


def legal_retiming(circuit, rnd):
    """A random legal lag vector (verified by construction)."""
    from repro.rng import default_rng

    rng = default_rng(rnd)
    r = [0] * len(circuit)
    # Random small lags on gates/POs, clipped to legality by rejection.
    for _ in range(40):
        v = int(rng.integers(0, len(circuit)))
        if circuit.kind(v) is NodeKind.PI:
            continue
        delta = int(rng.integers(-1, 2))
        r[v] += delta
        ok = all(
            w + r[dst] - r[src] >= 0 for src, dst, w in circuit.edges()
        )
        if not ok:
            r[v] -= delta
    return r


class TestApplyRetiming:
    @given(seeds, seeds)
    @FAST
    def test_roundtrip(self, seed, rnd):
        c = random_seq_circuit(3, 10, seed=seed, feedback=2)
        r = legal_retiming(c, rnd)
        forward = c.apply_retiming(r)
        back = forward.apply_retiming([-x for x in r])
        assert [tuple(e) for e in back.edges()] == [tuple(e) for e in c.edges()]

    @given(seeds, seeds)
    @FAST
    def test_cycle_ratio_invariant(self, seed, rnd):
        c = random_seq_circuit(3, 10, seed=seed, feedback=2)
        r = legal_retiming(c, rnd)
        assert mdr_ratio(c.apply_retiming(r)) == mdr_ratio(c)

    @given(seeds, seeds)
    @FAST
    def test_structure_preserved(self, seed, rnd):
        c = random_seq_circuit(3, 10, seed=seed, feedback=2)
        r = legal_retiming(c, rnd)
        out = c.apply_retiming(r)
        assert len(out) == len(c)
        for v in c.node_ids():
            assert out.name_of(v) == c.name_of(v)
            assert out.kind(v) == c.kind(v)
            assert [p.src for p in out.fanins(v)] == [
                p.src for p in c.fanins(v)
            ]

    @given(seeds)
    @FAST
    def test_zero_retiming_identity(self, seed):
        c = random_seq_circuit(3, 10, seed=seed, feedback=2)
        out = c.apply_retiming([0] * len(c))
        assert [tuple(e) for e in out.edges()] == [tuple(e) for e in c.edges()]


class TestCopySemantics:
    @given(seeds)
    @FAST
    def test_copy_equal_structure(self, seed):
        c = random_seq_circuit(3, 10, seed=seed, feedback=2)
        d = c.copy("other")
        assert d.name == "other"
        assert list(d.edges()) == list(c.edges())
        # deep enough: mutating the copy leaves the original intact
        from repro.netlist.graph import Pin

        g = d.gates[0]
        d.node(g).fanins[0] = Pin(d.node(g).fanins[0].src, 7)
        assert list(d.edges()) != list(c.edges())

    @given(seeds)
    @FAST
    def test_with_weights_rewrites(self, seed):
        c = random_seq_circuit(3, 10, seed=seed, feedback=2)
        doubled = c.with_weights(lambda s, d, w: 2 * w)
        assert doubled.total_edge_weight == 2 * c.total_edge_weight


class TestStatsConsistency:
    @given(seeds)
    @FAST
    def test_fanouts_match_edges(self, seed):
        c = random_seq_circuit(3, 12, seed=seed, feedback=3)
        edge_count = sum(1 for _ in c.edges())
        fanout_count = sum(len(c.fanouts(v)) for v in c.node_ids())
        assert edge_count == fanout_count

    @given(seeds)
    @FAST
    def test_shared_ffs_at_most_total_weight(self, seed):
        c = random_seq_circuit(3, 12, seed=seed, feedback=3)
        assert c.n_ffs <= c.total_edge_weight
