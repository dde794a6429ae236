"""Tests for mapping generation from converged labels."""

import pytest

from repro.core.driver import search_min_phi
from repro.core.mapping import MappingError, Realization, generate_mapping, realize_node
from repro.core.expanded import sequential_cone_function
from repro.netlist.graph import SeqCircuit
from repro.retime.mdr import min_feasible_period
from tests.helpers import AND2, BUF, random_seq_circuit


def solved(circuit, k, resyn=False):
    from repro.retime.mdr import min_feasible_period as bound

    phi, outcomes = search_min_phi(circuit, k, bound(circuit), resyn)
    return phi, outcomes[phi].labels


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


class TestRealizeNode:
    def test_plain_cut_found(self):
        c = and_ring(4)
        phi, labels = solved(c, k=5)
        for g in c.gates:
            real = realize_node(c, g, phi, labels, 5, 15, allow_resyn=False)
            assert real.resyn is None
            assert len(real.cut) <= 5

    def test_mapping_error_on_bogus_labels(self):
        c = and_ring(6)
        labels = [0] * len(c)  # all-zero labels admit no cut for gates
        with pytest.raises(MappingError):
            realize_node(c, c.gates[2], 1, labels, 2, 2, allow_resyn=False)

    def test_resyn_fallback(self):
        c = and_ring(8)
        phi, labels = solved(c, k=5, resyn=True)
        assert phi == 1
        resyn_used = 0
        for g in c.gates:
            try:
                real = realize_node(c, g, phi, labels, 5, 15, allow_resyn=True)
            except MappingError:  # pragma: no cover
                pytest.fail("realization missing")
            if real.resyn is not None:
                resyn_used += 1
        assert resyn_used > 0


class TestGenerateMapping:
    def test_only_needed_gates_emitted(self):
        # A dangling gate never reached from POs is not mapped.
        c = and_ring(4)
        dead = c.add_gate("dead", BUF, [(c.pis[0], 0)])
        phi, labels = solved(c, k=5)
        mapped = generate_mapping(c, phi, labels, 5)
        assert "dead" not in mapped

    def test_lut_functions_exact(self):
        c = and_ring(5)
        phi, labels = solved(c, k=4)
        mapped = generate_mapping(c, phi, labels, 4)
        # Every mapped LUT must equal the cone function of its cut.
        for g in mapped.gates:
            name = mapped.name_of(g)
            if "~s" in name:
                continue
            subject = c.id_of(name)
            cut = [
                (c.id_of(mapped.name_of(p.src)), p.weight)
                for p in mapped.fanins(g)
            ]
            assert sequential_cone_function(c, subject, cut) == mapped.func(g)

    def test_preseeded_realizations_respected(self):
        c = and_ring(4)
        phi, labels = solved(c, k=5)
        v = c.fanins(c.pos[0])[0].src
        fixed = Realization(
            cut=tuple((p.src, p.weight) for p in c.fanins(v))
        )
        mapped = generate_mapping(
            c, phi, labels, 5, realizations={v: fixed}
        )
        root = mapped.id_of(c.name_of(v))
        assert len(mapped.fanins(root)) == len(fixed.cut)

    @pytest.mark.parametrize("seed", range(4))
    def test_mdr_invariant(self, seed):
        c = random_seq_circuit(3, 15, seed=seed, feedback=3)
        phi, labels = solved(c, k=3)
        mapped = generate_mapping(c, phi, labels, 3)
        assert min_feasible_period(mapped) <= phi

    def test_po_through_pi(self):
        c = SeqCircuit("pipo")
        a = c.add_pi("a")
        c.add_po("o", a, 3)
        phi, labels = solved(c, k=2)
        mapped = generate_mapping(c, phi, labels, 2)
        assert mapped.n_gates == 0
        assert mapped.fanins(mapped.pos[0])[0].weight == 3


class TestMaxCopiesThreading:
    """The caller's ``max_copies`` reaches every expansion and cone
    evaluation after the labels converge, not just the label run —
    otherwise a raised bound lets labels converge and then mapping
    overflows at the default."""

    BOUND = 250_000  # above DEFAULT_MAX_COPIES: the raised-bound case

    @pytest.fixture
    def seen(self, monkeypatch):
        import repro.core.kcut as kcut
        import repro.core.mapping as mapping
        import repro.core.seqdecomp as seqdecomp

        calls = []

        def spy(owner, name):
            original = getattr(owner, name)

            def recorder(*args, **kwargs):
                calls.append((name, kwargs.get("max_copies")))
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, recorder)

        spy(kcut, "expand_partial")
        spy(mapping, "sequential_cone_function")
        spy(seqdecomp, "sequential_cone_function")
        return calls

    def test_turbomap_mapping_stage(self, seen):
        from repro.core.turbomap import turbomap

        c = random_seq_circuit(3, 15, seed=1, feedback=3)
        turbomap(c, 3, max_copies=self.BOUND, check=False)
        assert {name for name, _ in seen} == {
            "expand_partial", "sequential_cone_function",
        }
        assert {bound for _, bound in seen} == {self.BOUND}

    def test_turbosyn_resynthesis_and_mapping(self, seen):
        from repro.core.turbosyn import turbosyn

        c = random_seq_circuit(4, 30, seed=2, feedback=4)
        turbosyn(c, 3, max_copies=self.BOUND, check=False)
        assert seen
        assert {bound for _, bound in seen} == {self.BOUND}

    def test_area_stage(self, seen):
        from repro.core.area import map_with_area_recovery

        c = random_seq_circuit(4, 30, seed=2, feedback=4)
        phi, labels = solved(c, k=3, resyn=True)
        seen.clear()
        map_with_area_recovery(c, phi, labels, 3, max_copies=self.BOUND)
        assert seen
        assert {bound for _, bound in seen} == {self.BOUND}
