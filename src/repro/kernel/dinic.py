"""Dinic max-flow on preallocated flat arrays.

Drop-in alternative to the Edmonds-Karp
:class:`repro.comb.maxflow.FlowNetwork` (same construction and query
API) with the classical Dinic structure:

* *level-graph phases*: one BFS per phase labels every node with its
  residual BFS depth; augmentation only follows strictly
  depth-increasing arcs, so each phase finds a blocking flow and the
  shortest augmenting-path length grows monotonically across phases;
* *current-arc optimization*: each node keeps a cursor into its
  adjacency list; an arc rejected once in a phase (saturated or not
  depth-increasing) is never rescanned in that phase, bounding a
  phase's total arc work by ``O(E)`` plus the augmenting-path lengths.

The cut queries of the label computation build node-split networks
whose internal edges have unit capacity, so every augmenting path moves
exactly one unit and Dinic's unit-capacity bound applies: at most
``O(sqrt(E))`` phases, ``O(E * sqrt(E))`` total, versus Edmonds-Karp's
``O((K+1) * E)`` with a fresh BFS per augmented unit.  In practice the
bounded queries (``limit = K``) finish in one or two phases because a
single blocking flow pushes many units.

All state lives in flat parallel lists, recycled across queries via
:meth:`DinicNetwork.reset` exactly like the Edmonds-Karp arena; the
per-query counters ``phases`` / ``arcs_advanced`` feed the
deterministic work telemetry in
:class:`repro.core.labels.LabelStats`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Set

if TYPE_CHECKING:
    from repro.analysis.sanitize import FlowSanitizer

#: Effectively infinite capacity for non-cut edges (mirrors
#: :data:`repro.comb.maxflow.INF`).
INF = 1 << 30


class DinicNetwork:
    """A residual flow network solved by Dinic's algorithm.

    Construction API (``add_node`` / ``add_edge`` / ``edge_flow`` /
    ``reset``) matches :class:`repro.comb.maxflow.FlowNetwork`, the
    Edmonds-Karp reference the differential tests compare it against.
    """

    def __init__(self) -> None:
        # Edge arrays: to[i], cap[i]; edge i^1 is the reverse of edge i.
        self._to: List[int] = []
        self._cap: List[int] = []
        self._adj: List[List[int]] = []
        self._adj_pool: List[List[int]] = []
        # Per-node scratch reused across max_flow calls (grown on
        # demand): BFS level and the current-arc cursor.
        self._level: List[int] = []
        self._cursor: List[int] = []
        self._queue: Deque[int] = deque()
        #: Level-graph phases run since the last reset or counter
        #: drain (one BFS each).
        self.phases = 0
        #: Arcs examined by the blocking-flow search since the last
        #: reset or drain (the deterministic work measure of the DFS).
        self.arcs_advanced = 0
        # Opt-in invariant sanitizer (REPRO_SANITIZE=1 / --sanitize):
        # conservation, capacity, and level-graph checks per max_flow
        # call.  Imported lazily at construction time — the analysis
        # package imports repro.kernel, so a top-level import would
        # cycle.
        self._san: Optional["FlowSanitizer"] = None
        try:
            from repro.analysis.sanitize import flow_sanitizer
        except ImportError:  # pragma: no cover - analysis always ships
            pass
        else:
            self._san = flow_sanitizer()

    # ------------------------------------------------------------------
    # Construction (FlowNetwork-compatible)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Empty the network in place, keeping allocations for reuse,
        and zero the work counters."""
        self._to.clear()
        self._cap.clear()
        self.phases = 0
        self.arcs_advanced = 0
        if self._san is not None:
            self._san.reset()
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
        if self._san is not None:
            self._san.record_edge(cap)
        self._adj[u].append(idx)
        self._adj[v].append(idx + 1)
        return idx

    def edge_flow(self, idx: int) -> int:
        """Current flow on edge ``idx`` (capacity moved to its reverse)."""
        return self._cap[idx ^ 1]

    def drain_counters(self) -> "tuple[int, int]":
        """Return and zero ``(phases, arcs_advanced)`` (per-query stats)."""
        out = (self.phases, self.arcs_advanced)
        self.phases = 0
        self.arcs_advanced = 0
        return out

    # ------------------------------------------------------------------
    # Solve
    # ------------------------------------------------------------------
    def _bfs_levels(self, source: int, sink: int) -> bool:
        """Label residual BFS depths; True when the sink is reachable."""
        level = self._level
        n = len(self._adj)
        while len(level) < n:
            level.append(-1)
        for i in range(n):
            level[i] = -1
        level[source] = 0
        queue = self._queue
        queue.clear()
        queue.append(source)
        to = self._to
        cap = self._cap
        adj = self._adj
        sink_level = -1
        while queue:
            u = queue.popleft()
            du = level[u] + 1
            if du == sink_level:
                continue  # beyond the sink: cannot lie on a shortest path
            for idx in adj[u]:
                v = to[idx]
                if level[v] < 0 and cap[idx] > 0:
                    level[v] = du
                    if v == sink:
                        sink_level = du
                    else:
                        queue.append(v)
        return sink_level >= 0

    def _augment(self, source: int, sink: int) -> int:
        """Push one augmenting path along the level graph; 0 when none.

        Walks forward through each node's current arc; a node with no
        admissible arc left is pruned from the level graph
        (``level = -1``) and the walk retreats one edge.  Every arc is
        examined at most once per phase across all calls — the cursors
        persist between calls within a phase.
        """
        to = self._to
        cap = self._cap
        adj = self._adj
        level = self._level
        cursor = self._cursor
        path: List[int] = []
        u = source
        arcs = 0
        while True:
            if u == sink:
                bottleneck = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= bottleneck
                    cap[e ^ 1] += bottleneck
                self.arcs_advanced += arcs
                return bottleneck
            edges = adj[u]
            n_edges = len(edges)
            du = level[u] + 1
            advanced = False
            i = cursor[u]
            start = i
            while i < n_edges:
                e = edges[i]
                v = to[e]
                if cap[e] > 0 and level[v] == du:
                    cursor[u] = i
                    path.append(e)
                    u = v
                    advanced = True
                    break
                i += 1
            arcs += i - start + (1 if advanced else 0)
            if advanced:
                continue
            cursor[u] = n_edges
            level[u] = -1  # dead end: prune from this phase's level graph
            if not path:
                self.arcs_advanced += arcs
                return 0
            e = path.pop()
            u = to[e ^ 1]
            cursor[u] += 1  # the arc we just retreated over is exhausted

    def max_flow(self, source: int, sink: int, limit: int) -> int:
        """Dinic max-flow, stopping once the flow exceeds ``limit``.

        Same contract as the Edmonds-Karp engine: the exact max flow
        when it is at most ``limit``, any value ``> limit`` otherwise
        (on the unit-bottleneck split networks the overshoot is exactly
        ``limit + 1``).  Early exit never leaves a partial augmenting
        path behind, so :meth:`residual_reachable` after a *completed*
        run (return value ``<= limit``) is the canonical min-cut side.
        """
        if source == sink:
            raise ValueError("source equals sink")
        flow = 0
        cursor = self._cursor
        san = self._san
        while flow <= limit:
            if not self._bfs_levels(source, sink):
                if san is not None:
                    san.check_flow(self, source, sink)
                return flow
            if san is not None:
                san.check_levels(self, source, sink)
            self.phases += 1
            n = len(self._adj)
            while len(cursor) < n:
                cursor.append(0)
            for i in range(n):
                cursor[i] = 0
            while flow <= limit:
                pushed = self._augment(source, sink)
                if not pushed:
                    break
                flow += pushed
        if san is not None:
            san.check_flow(self, source, sink)
        return flow

    def residual_reachable(self, source: int) -> Set[int]:
        """Nodes reachable from ``source`` along positive-residual edges."""
        seen = {source}
        queue = deque([source])
        to = self._to
        cap = self._cap
        adj = self._adj
        while queue:
            u = queue.popleft()
            for idx in adj[u]:
                v = to[idx]
                if v not in seen and cap[idx] > 0:
                    seen.add(v)
                    queue.append(v)
        return seen
