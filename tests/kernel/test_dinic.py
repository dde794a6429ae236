"""Dinic engine: API parity plus a randomized EK differential.

The min-cut *value* is unique, and the source-side residual reachable
set is the same for every max flow of a network, so the two engines
must agree exactly on both — the differential below checks ~200 random
node-split networks.
"""

import random

from repro.comb.maxflow import FlowNetwork, SplitNetwork
from repro.kernel.dinic import INF, DinicNetwork
from tests.helpers import ek_split_network

BIG = 1 << 20


class TestDinicNetwork:
    """Same cases the FlowNetwork unit tests pin down."""

    def test_simple_max_flow(self):
        net = DinicNetwork()
        s, a, b, t = (net.add_node() for _ in range(4))
        net.add_edge(s, a, 1)
        net.add_edge(s, b, 1)
        net.add_edge(a, t, 1)
        net.add_edge(b, t, 1)
        assert net.max_flow(s, t, limit=10) == 2

    def test_limit_cutoff_reports_more_than_limit(self):
        net = DinicNetwork()
        s, t = net.add_node(), net.add_node()
        for _ in range(5):
            m = net.add_node()
            net.add_edge(s, m, 1)
            net.add_edge(m, t, 1)
        assert net.max_flow(s, t, limit=2) > 2

    def test_zero_flow(self):
        net = DinicNetwork()
        s, t = net.add_node(), net.add_node()
        net.add_node()
        assert net.max_flow(s, t, limit=5) == 0

    def test_reset_reuses_scratch(self):
        net = DinicNetwork()
        for _ in range(3):
            net.reset()
            s, a, t = (net.add_node() for _ in range(3))
            net.add_edge(s, a, 2)
            net.add_edge(a, t, 1)
            assert net.max_flow(s, t, limit=10) == 1

    def test_counters_drain(self):
        net = DinicNetwork()
        s, a, t = (net.add_node() for _ in range(3))
        net.add_edge(s, a, 1)
        net.add_edge(a, t, 1)
        net.max_flow(s, t, limit=10)
        phases, arcs = net.drain_counters()
        assert phases >= 1 and arcs >= 1
        assert net.drain_counters() == (0, 0)  # drained

    def test_residual_reachable_is_source_side(self):
        net = DinicNetwork()
        s, a, t = (net.add_node() for _ in range(3))
        net.add_edge(s, a, 5)
        e = net.add_edge(a, t, 1)
        assert net.max_flow(s, t, limit=10) == 1
        reach = net.residual_reachable(s)
        assert s in reach and a in reach and t not in reach
        assert net.edge_flow(e) == 1


def _random_spec(rng):
    """A random node-split DAG spec: (n, edges, sources, sink)."""
    n = rng.randint(4, 12)
    edges = []
    for j in range(1, n):
        # every node gets at least one predecessor, so no node is both
        # source-attached and the sink
        preds = rng.sample(range(j), k=min(j, rng.randint(1, 3)))
        edges.extend((i, j) for i in preds)
    sources = [j for j in range(n - 1) if not any(e[1] == j for e in edges)]
    if not sources:
        sources = [0]
    return n, edges, sources, n - 1


def _build(flow, spec):
    n, edges, sources, sink = spec
    net = SplitNetwork() if flow == "dinic" else ek_split_network()
    for x in range(n):
        net.add_dag_node(x, cuttable=(x != sink))
    for x, y in edges:
        net.add_dag_edge(x, y)
    for x in sources:
        net.attach_source(x)
    net.attach_sink(sink)
    return net


class TestDifferentialVsEK:
    def test_split_network_backends(self):
        assert isinstance(SplitNetwork().net, DinicNetwork)
        assert type(ek_split_network().net) is FlowNetwork

    def test_random_split_networks_agree(self):
        """~200 random networks: equal flow value and cut-node sets."""
        rng = random.Random(20260806)
        for trial in range(200):
            spec = _random_spec(rng)
            ek = _build("ek", spec)
            dn = _build("dinic", spec)
            f_ek = ek.max_flow(BIG)
            f_dn = dn.max_flow(BIG)
            assert f_ek == f_dn, f"trial {trial}: flow {f_ek} != {f_dn}"
            assert ek.cut_nodes() == dn.cut_nodes(), f"trial {trial}"
            assert ek.source_side() == dn.source_side(), f"trial {trial}"

    def test_random_split_networks_limit_agreement(self):
        """Bounded contract: both engines agree on 'more than limit',
        and report the exact value when the flow fits the limit."""
        rng = random.Random(77)
        for trial in range(100):
            spec = _random_spec(rng)
            limit = rng.randint(1, 4)
            f_ek = _build("ek", spec).max_flow(limit)
            f_dn = _build("dinic", spec).max_flow(limit)
            assert (f_ek > limit) == (f_dn > limit), f"trial {trial}"
            if f_ek <= limit:
                assert f_ek == f_dn, f"trial {trial}"

    def test_unit_chain_single_phase(self):
        # A long unit-capacity chain saturates in one Dinic phase.
        net = DinicNetwork()
        nodes = [net.add_node() for _ in range(20)]
        for a, b in zip(nodes, nodes[1:]):
            net.add_edge(a, b, 1)
        assert net.max_flow(nodes[0], nodes[-1], limit=5) == 1
        phases, _ = net.drain_counters()
        assert phases == 1

    def test_inf_capacity_constant(self):
        # The INF sentinel must dominate any realistic cut bound.
        assert INF > BIG
