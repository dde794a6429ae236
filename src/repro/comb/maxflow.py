"""Unit-capacity max-flow for K-feasible cut computation.

Both FlowMap [6] and the TurboMap/TurboSYN label computation [11] decide
"is there a cut with at most K nodes?" by a max-flow computation on a
node-split network: every candidate cut node becomes an internal edge of
capacity 1, all other edges get infinite capacity, and a K-feasible cut
exists iff the max flow is at most K.  Flows never need to exceed ``K+1``,
so BFS augmentation (Edmonds-Karp) with an early cutoff is exact and fast:
``O((K+1) * E)`` per query.

:class:`FlowNetwork` is a minimal residual-graph implementation;
:func:`node_split_network` builds the standard construction from a DAG
description and :func:`min_cut_nodes` recovers the cut-node set after a
bounded max-flow run.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set

#: Effectively infinite capacity for non-cut edges.
INF = 1 << 30


class FlowNetwork:
    """A residual flow network with integer capacities."""

    def __init__(self) -> None:
        # Edge arrays: to[i], cap[i]; edge i^1 is the reverse of edge i.
        self._to: List[int] = []
        self._cap: List[int] = []
        self._adj: List[List[int]] = []
        # Recycled per-node adjacency lists (see reset): cleared lists are
        # cheaper to hand back out than freshly allocated ones.
        self._adj_pool: List[List[int]] = []
        # BFS parent-edge scratch, grown on demand and reused across
        # max_flow calls (one allocation per network, not per query).
        self._parent_edge: List[int] = []

    def reset(self) -> None:
        """Empty the network in place, keeping allocations for reuse.

        Per-node adjacency lists are cleared and parked in a pool that
        :meth:`add_node` draws from, so a solver running thousands of
        flow queries recycles one arena instead of reallocating a fresh
        network per query.
        """
        self._to.clear()
        self._cap.clear()
        while self._adj:
            lst = self._adj.pop()
            lst.clear()
            self._adj_pool.append(lst)

    def add_node(self) -> int:
        self._adj.append(self._adj_pool.pop() if self._adj_pool else [])
        return len(self._adj) - 1

    def add_nodes(self, count: int) -> range:
        start = len(self._adj)
        for _ in range(count):
            self._adj.append(self._adj_pool.pop() if self._adj_pool else [])
        return range(start, start + count)

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    def add_edge(self, u: int, v: int, cap: int) -> int:
        """Add a directed edge; returns its index (reverse is index+1)."""
        if not (0 <= u < len(self._adj) and 0 <= v < len(self._adj)):
            raise ValueError("edge endpoint out of range")
        if cap < 0:
            raise ValueError("capacity must be non-negative")
        idx = len(self._to)
        self._to.extend((v, u))
        self._cap.extend((cap, 0))
        self._adj[u].append(idx)
        self._adj[v].append(idx + 1)
        return idx

    def edge_flow(self, idx: int) -> int:
        """Current flow on edge ``idx`` (capacity moved to its reverse)."""
        return self._cap[idx ^ 1]

    def max_flow(self, source: int, sink: int, limit: int) -> int:
        """Edmonds-Karp max-flow, stopping once the flow exceeds ``limit``.

        Returns ``min(true max flow, limit + 1)``: a return value of
        ``limit + 1`` means "more than limit", which is all the K-cut
        queries need to know.
        """
        if source == sink:
            raise ValueError("source equals sink")
        flow = 0
        parent_edge = self._parent_edge
        n = len(self._adj)
        while len(parent_edge) < n:
            parent_edge.append(-1)
        while flow <= limit:
            # BFS for an augmenting path.
            for i in range(n):
                parent_edge[i] = -1
            parent_edge[source] = -2
            queue = deque([source])
            found = False
            while queue and not found:
                u = queue.popleft()
                for idx in self._adj[u]:
                    v = self._to[idx]
                    if parent_edge[v] == -1 and self._cap[idx] > 0:
                        parent_edge[v] = idx
                        if v == sink:
                            found = True
                            break
                        queue.append(v)
            if not found:
                return flow
            # Augment by the bottleneck along the path (>= 1).
            bottleneck = INF
            v = sink
            while v != source:
                idx = parent_edge[v]
                bottleneck = min(bottleneck, self._cap[idx])
                v = self._to[idx ^ 1]
            v = sink
            while v != source:
                idx = parent_edge[v]
                self._cap[idx] -= bottleneck
                self._cap[idx ^ 1] += bottleneck
                v = self._to[idx ^ 1]
            flow += bottleneck
        return flow

    def residual_reachable(self, source: int) -> Set[int]:
        """Nodes reachable from ``source`` along positive-residual edges.

        After a completed max-flow run this is the source side of a
        minimum cut.
        """
        seen = {source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for idx in self._adj[u]:
                v = self._to[idx]
                if v not in seen and self._cap[idx] > 0:
                    seen.add(v)
                    queue.append(v)
        return seen


class SplitNetwork:
    """A node-split flow network over an abstract DAG.

    Build with :func:`node_split_network`.  ``inp[x]``/``out[x]`` map each
    DAG node to its split pair; ``split_edge[x]`` is the capacity-1
    internal edge whose saturation marks ``x`` as a cut node.

    Queries run on :class:`repro.kernel.dinic.DinicNetwork` (level-graph
    phases with current-arc cursors).  It satisfies the same bounded
    contract as the Edmonds-Karp :class:`FlowNetwork` and — because the
    source-side residual min-cut is unique for any max flow — reports
    identical cut-node sets; the differential tests hold it to that.
    """

    def __init__(self) -> None:
        # Local import: repro.kernel imports back into repro.core, which
        # imports this module.
        from repro.kernel.dinic import DinicNetwork

        self.net: FlowNetwork = DinicNetwork()  # API-compatible
        self.source = self.net.add_node()
        self.sink = self.net.add_node()
        self.inp: Dict[object, int] = {}
        self.out: Dict[object, int] = {}
        self.split_edge: Dict[object, int] = {}

    def reset(self) -> None:
        """Empty the network in place for reuse by the next cut query."""
        self.net.reset()
        self.source = self.net.add_node()
        self.sink = self.net.add_node()
        self.inp.clear()
        self.out.clear()
        self.split_edge.clear()

    def add_dag_node(self, x: object, cuttable: bool = True) -> None:
        """Register DAG node ``x``; ``cuttable`` nodes get a unit split edge."""
        if x in self.inp:
            raise ValueError(f"duplicate DAG node {x!r}")
        a = self.net.add_node()
        b = self.net.add_node()
        self.inp[x] = a
        self.out[x] = b
        self.split_edge[x] = self.net.add_edge(a, b, 1 if cuttable else INF)

    def add_dag_edge(self, x: object, y: object) -> None:
        """Infinite-capacity edge from DAG node ``x`` to DAG node ``y``."""
        self.net.add_edge(self.out[x], self.inp[y], INF)

    def attach_source(self, x: object) -> None:
        """Collapse DAG node ``x`` into the source side (feeds its input)."""
        self.net.add_edge(self.source, self.inp[x], INF)

    def attach_sink(self, x: object) -> None:
        """Collapse DAG node ``x`` into the sink side.

        Connects the node's *input* half to the sink so that the node's
        own split edge can never bottleneck or be reported as a cut: a
        collapsed node is inside the LUT by definition.
        """
        self.net.add_edge(self.inp[x], self.sink, INF)

    def max_flow(self, limit: int) -> int:
        return self.net.max_flow(self.source, self.sink, limit)

    def cut_nodes(self) -> List[object]:
        """Cut-node set after :meth:`max_flow` (saturated split edges).

        A DAG node is in the cut iff its input half is reachable from the
        source in the residual graph but its output half is not.
        """
        reach = self.net.residual_reachable(self.source)
        cut = []
        for x, a in self.inp.items():
            if a in reach and self.out[x] not in reach:
                cut.append(x)
        return cut

    def source_side(self) -> Set[object]:
        """DAG nodes whose *output* half is on the source side of the cut."""
        reach = self.net.residual_reachable(self.source)
        return {x for x, b in self.out.items() if b in reach}
