"""Cross-checks of core graph algorithms against networkx references."""

from fractions import Fraction

import networkx as nx
import pytest

from repro.netlist.graph import SeqCircuit
from repro.retime.mdr import mdr_ratio
from tests.helpers import has_positive_cycle, random_seq_circuit


def to_networkx(circuit: SeqCircuit) -> nx.MultiDiGraph:
    g = nx.MultiDiGraph()
    g.add_nodes_from(circuit.node_ids())
    for src, dst, w in circuit.edges():
        g.add_edge(src, dst, weight=w)
    return g


@pytest.mark.parametrize("seed", range(8))
class TestSccAgainstNetworkx:
    def test_same_components(self, seed):
        c = random_seq_circuit(4, 20, seed=seed, feedback=5)
        ours = {frozenset(comp) for comp in c.sccs()}
        theirs = {
            frozenset(comp)
            for comp in nx.strongly_connected_components(to_networkx(c))
        }
        assert ours == theirs

    def test_topological_component_order(self, seed):
        c = random_seq_circuit(4, 20, seed=seed, feedback=5)
        comps = c.sccs()
        index = {}
        for i, comp in enumerate(comps):
            for v in comp:
                index[v] = i
        for src, dst, _w in c.edges():
            assert index[src] <= index[dst]


@pytest.mark.parametrize("seed", range(6))
class TestMdrAgainstNetworkx:
    def _cycle_ratios(self, circuit):
        g = to_networkx(circuit)
        ratios = []
        # networkx simple_cycles on the condensed multigraph
        simple = nx.MultiDiGraph()
        for u, v, data in g.edges(data=True):
            simple.add_edge(u, v, weight=data["weight"])
        for cycle in nx.simple_cycles(nx.DiGraph(simple)):
            # evaluate best (min total weight) realization of the cycle
            delay = sum(circuit.node(v).delay for v in cycle)
            weight = 0
            ok = True
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                ws = [p.weight for p in circuit.fanins(v) if p.src == u]
                if not ws:
                    ok = False
                    break
                weight += min(ws)
            if ok and weight > 0:
                ratios.append(Fraction(delay, weight))
        return ratios

    def test_mdr_matches_cycle_enumeration(self, seed):
        c = random_seq_circuit(3, 10, seed=seed, feedback=3)
        ratios = self._cycle_ratios(c)
        expected = max(ratios) if ratios else Fraction(0)
        assert mdr_ratio(c) == expected

    def test_positive_cycle_test_consistent(self, seed):
        c = random_seq_circuit(3, 10, seed=seed, feedback=3)
        ratio = mdr_ratio(c)
        if ratio > 0:
            assert has_positive_cycle(c, ratio - Fraction(1, 1000))
        assert not has_positive_cycle(c, ratio)


@pytest.mark.parametrize("seed", range(6))
class TestTopoOrder:
    def test_comb_topo_is_valid(self, seed):
        c = random_seq_circuit(4, 18, seed=seed, feedback=4)
        order = c.comb_topo_order()
        position = {v: i for i, v in enumerate(order)}
        for src, dst, w in c.edges():
            if w == 0:
                assert position[src] < position[dst]

    def test_matches_networkx_dag_check(self, seed):
        c = random_seq_circuit(4, 18, seed=seed, feedback=4)
        comb = nx.DiGraph(
            (src, dst) for src, dst, w in c.edges() if w == 0
        )
        comb.add_nodes_from(c.node_ids())
        assert nx.is_directed_acyclic_graph(comb)
