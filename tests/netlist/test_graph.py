"""Tests for the retiming-graph circuit representation."""

import pytest

from repro.boolfn.truthtable import TruthTable
from repro.netlist.graph import NodeKind, Pin, SeqCircuit
from tests.helpers import random_seq_circuit

AND2 = TruthTable.from_function(2, lambda a, b: a and b)
OR2 = TruthTable.from_function(2, lambda a, b: a or b)
NOT1 = TruthTable.from_function(1, lambda a: not a)
BUF = TruthTable.from_function(1, lambda a: a)


def simple_loop():
    """PI -> g1 -> g2 -(1 FF)-> g1 feedback, PO on g2."""
    c = SeqCircuit("loop")
    a = c.add_pi("a")
    g1 = c.add_gate("g1", AND2, [(a, 0), (a, 0)])  # placeholder, fix below
    return c


def counterish():
    c = SeqCircuit("counterish")
    a = c.add_pi("a")
    g1 = c.add_gate("g1", OR2, [(a, 0), (a, 1)])
    g2 = c.add_gate("g2", AND2, [(g1, 0), (a, 0)])
    c.add_po("out", g2, 0)
    return c, a, g1, g2


class TestConstruction:
    def test_basic_nodes(self):
        c, a, g1, g2 = counterish()
        assert c.kind(a) is NodeKind.PI
        assert c.kind(g2) is NodeKind.GATE
        assert c.kind(c.id_of("out")) is NodeKind.PO
        assert len(c) == 4

    def test_duplicate_names_rejected(self):
        c = SeqCircuit()
        c.add_pi("x")
        with pytest.raises(ValueError):
            c.add_pi("x")

    def test_arity_mismatch_rejected(self):
        c = SeqCircuit()
        a = c.add_pi("a")
        with pytest.raises(ValueError):
            c.add_gate("g", AND2, [(a, 0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Pin(0, -1)

    def test_unknown_source_rejected(self):
        c = SeqCircuit()
        with pytest.raises(ValueError):
            c.add_po("o", 5)

    def test_stats(self):
        c, *_ = counterish()
        assert c.stats() == {"pis": 1, "pos": 1, "gates": 2, "ffs": 1}

    def test_repr(self):
        c, *_ = counterish()
        assert "2 gates" in repr(c)


class TestTopology:
    def test_fanouts(self):
        c, a, g1, g2 = counterish()
        assert sorted(c.fanouts(a)) == [(g1, 0), (g1, 1), (g2, 0)]
        assert c.fanouts(g2) == [(c.id_of("out"), 0)]

    def test_edges(self):
        c, a, g1, g2 = counterish()
        assert (a, g1, 1) in list(c.edges())

    def test_comb_topo_order(self):
        c, a, g1, g2 = counterish()
        order = c.comb_topo_order()
        assert order.index(g1) < order.index(g2)

    def test_comb_cycle_detected(self):
        c = SeqCircuit()
        a = c.add_pi("a")
        g1 = c.add_gate("g1", AND2, [(a, 0), (a, 0)])
        g2 = c.add_gate("g2", AND2, [(g1, 0), (a, 0)])
        # Rewire g1 to read g2 with weight 0: combinational loop.
        c.node(g1).fanins[1] = Pin(g2, 0)
        with pytest.raises(ValueError):
            c.comb_topo_order()

    def test_registered_cycle_allowed(self):
        c = SeqCircuit()
        a = c.add_pi("a")
        g1 = c.add_gate("g1", AND2, [(a, 0), (a, 0)])
        g2 = c.add_gate("g2", AND2, [(g1, 0), (a, 0)])
        c.node(g1).fanins[1] = Pin(g2, 1)  # feedback through one FF
        c.add_po("o", g2)
        c.check()

    def test_sccs_topological(self):
        c = SeqCircuit()
        a = c.add_pi("a")
        g1 = c.add_gate("g1", AND2, [(a, 0), (a, 0)])
        g2 = c.add_gate("g2", AND2, [(g1, 0), (g1, 1)])
        c.node(g1).fanins[1] = Pin(g2, 1)
        o = c.add_po("o", g2)
        comps = c.sccs()
        # g1, g2 form one SCC; a before it; o after it.
        by_node = {}
        for idx, comp in enumerate(comps):
            for v in comp:
                by_node[v] = idx
        assert by_node[g1] == by_node[g2]
        assert by_node[a] < by_node[g1]
        assert by_node[g2] < by_node[o]

    def test_sccs_deep_graph_no_recursion_error(self):
        c = SeqCircuit()
        prev = c.add_pi("x")
        for i in range(3000):
            prev = c.add_gate(f"g{i}", BUF, [(prev, 0)])
        c.add_po("o", prev)
        comps = c.sccs()
        assert len(comps) == 3002


class TestSccCache:
    """One decomposition per circuit structure, like ``compiled()``."""

    @staticmethod
    def _ring():
        c = SeqCircuit("ring")
        a = c.add_pi("a")
        g1 = c.add_gate_placeholder("g1", AND2)
        g2 = c.add_gate("g2", AND2, [(g1, 0), (a, 0)])
        c.set_fanins(g1, [(a, 0), (g2, 1)])
        c.add_po("o", g2)
        return c, a, g1, g2

    def test_checked_turbomap_computes_once_per_circuit(self, monkeypatch):
        from repro.bench import suite
        from repro.core.turbomap import turbomap

        asked, computed = [], []
        real_sccs = SeqCircuit.sccs
        real_tarjan = SeqCircuit._tarjan_sccs

        def sccs(self):
            asked.append(self)  # keeps the circuit alive: ids stay unique
            return real_sccs(self)

        def tarjan(self):
            computed.append(self)
            return real_tarjan(self)

        monkeypatch.setattr(SeqCircuit, "sccs", sccs)
        monkeypatch.setattr(SeqCircuit, "_tarjan_sccs", tarjan)
        circuit = suite.build("bbara")
        result = turbomap(circuit, 5, check=True)
        for c in (circuit, result.mapped):
            assert sum(x is c for x in asked) >= 2  # several callers
            assert sum(x is c for x in computed) == 1
        assert len({id(c) for c in computed}) == len(computed)

    def test_rewire_gives_a_fresh_decomposition(self):
        c, a, g1, g2 = self._ring()
        before = c.sccs()
        assert sorted(max(before, key=len)) == [g1, g2]
        c.set_fanins(g1, [(a, 0), (g2, 1)])  # no-op rewire: kept
        assert c.sccs() is before
        c.set_fanins(g1, [(a, 0), (a, 1)])  # break the loop
        after = c.sccs()
        assert after is not before
        assert all(len(comp) == 1 for comp in after)

    def test_node_insertion_and_pickling_drop_it(self):
        import pickle

        c, a, g1, g2 = self._ring()
        before = c.sccs()
        clone = pickle.loads(pickle.dumps(c))
        assert clone._sccs is None
        assert clone.sccs() == before
        c.add_pi("b")
        assert c.sccs() is not before
        assert len(c.sccs()) == len(before) + 1


class TestNoOpEdits:
    """A no-op rewire keeps the derived caches; an effective one drops
    them."""

    def test_noop_set_fanins_keeps_compiled_and_schedule(self):
        circuit = random_seq_circuit(3, 8, seed=4)
        compiled = circuit.compiled()
        schedule = circuit.scc_schedule()
        g = circuit.gates[0]
        circuit.set_fanins(
            g, [(p.src, p.weight) for p in circuit.fanins(g)]
        )
        assert circuit.compiled() is compiled
        assert circuit.scc_schedule() is schedule

    def test_effective_set_fanins_invalidates_compiled_and_schedule(self):
        circuit = random_seq_circuit(3, 8, seed=4)
        compiled = circuit.compiled()
        schedule = circuit.scc_schedule()
        g = circuit.gates[0]
        pins = [(p.src, p.weight) for p in circuit.fanins(g)]
        pins[0] = (pins[0][0], pins[0][1] + 1)
        circuit.set_fanins(g, pins)
        assert circuit.compiled() is not compiled
        assert circuit.scc_schedule() is not schedule


class TestChecksAndBounds:
    def test_k_bounded(self):
        c, *_ = counterish()
        assert c.is_k_bounded(2)
        assert not c.is_k_bounded(1)

    def test_po_with_fanout_rejected(self):
        c = SeqCircuit()
        a = c.add_pi("a")
        o = c.add_po("o", a)
        g = c.add_gate("g", BUF, [(o, 0)])
        with pytest.raises(ValueError):
            c.check()

    def test_clock_period_unit_delay(self):
        c = SeqCircuit()
        a = c.add_pi("a")
        g1 = c.add_gate("g1", BUF, [(a, 0)])
        g2 = c.add_gate("g2", BUF, [(g1, 0)])
        g3 = c.add_gate("g3", BUF, [(g2, 1)])  # register splits the path
        c.add_po("o", g3)
        assert c.clock_period() == 2  # g1,g2 chain


class TestRetiming:
    def circuit(self):
        c = SeqCircuit()
        a = c.add_pi("a")
        g1 = c.add_gate("g1", BUF, [(a, 1)])
        g2 = c.add_gate("g2", BUF, [(g1, 1)])
        c.add_po("o", g2, 0)
        return c, a, g1, g2

    def test_apply_retiming_moves_registers(self):
        c, a, g1, g2 = self.circuit()
        # Move the register from a->g1 across g1 onto g1->g2.
        r = [0, -1, 0, 0]
        out = c.apply_retiming(r)
        weights = {(s, d): w for s, d, w in out.edges()}
        assert weights[(a, g1)] == 0
        assert weights[(g1, g2)] == 2

    def test_register_count_conserved_on_paths(self):
        c, a, g1, g2 = self.circuit()
        out = c.apply_retiming([0, -1, -1, -1])
        # Path a -> o keeps total weight only shifted by r(po) - r(pi) = -1.
        total_before = sum(w for *_e, w in c.edges())
        total_after = sum(w for *_e, w in out.edges())
        assert total_before - total_after == 1

    def test_illegal_retiming_rejected(self):
        c, a, g1, g2 = self.circuit()
        with pytest.raises(ValueError):
            c.apply_retiming([0, 2, 0, 0])  # a->g1 would become -1? (w=1+2-0 ok) g1->g2: 1+0-2 = -1

    def test_length_mismatch(self):
        c, *_ = self.circuit()
        with pytest.raises(ValueError):
            c.apply_retiming([0, 0])

    def test_copy_independent(self):
        c, *_ = counterish()
        d = c.copy()
        d.add_pi("extra")
        assert len(d) == len(c) + 1
