"""Sequential circuits as retiming graphs.

Following Leiserson-Saxe [16] and the paper's Section 2, a sequential
circuit is a directed graph ``G(V, E, W)``: each node is a primary input
(PI), primary output (PO) or gate; each edge ``e(u, v)`` carries a
non-negative integer weight ``w(e)`` — the number of flip-flops on the
connection from ``u`` to ``v``.  Combinational logic lives in the gates'
node functions (packed truth tables over the ordered fanins); flip-flops
exist *only* as edge weights, which is exactly the representation retiming
manipulates.

Structural invariants (checked by :meth:`SeqCircuit.check`):

* every cycle carries at least one register (no combinational loops);
* PIs have no fanins; POs have exactly one fanin and no fanouts;
* a gate's function arity equals its fanin count.

The same class represents both the input gate-level network (where "gate"
means a K-bounded logic gate) and the mapped LUT network (where "gate"
means a K-LUT); the unit delay model assigns every gate delay 1 and
PIs/POs delay 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.boolfn.truthtable import TruthTable


class NodeKind(enum.Enum):
    """Role of a node in the retiming graph."""

    PI = "pi"
    PO = "po"
    GATE = "gate"


@dataclass(frozen=True)
class Pin:
    """One fanin connection: source node id and register count."""

    src: int
    weight: int = 0

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("edge weight (register count) must be >= 0")


@dataclass(frozen=True)
class Edit:
    """One journaled structural mutation of a :class:`SeqCircuit`.

    ``kind`` is ``"add"`` (a node was appended; ``nid`` is its new id)
    or ``"rewire"`` (the fanins of existing node ``nid`` changed);
    ``pins`` is the node's fanin list *after* the edit as plain
    ``(src, weight)`` tuples.  Consumed by the incremental remapping
    layer (:mod:`repro.incremental`), which patches the compiled CSR
    kernel and computes the dirty region from these records instead of
    recompiling and resolving the whole circuit.
    """

    kind: str
    nid: int
    pins: Tuple[Tuple[int, int], ...]


@dataclass
class Node:
    """A node of the retiming graph.  Use :class:`SeqCircuit` to build."""

    name: str
    kind: NodeKind
    func: Optional[TruthTable]
    fanins: List[Pin]

    @property
    def delay(self) -> int:
        """Unit delay model: gates cost 1, PIs and POs cost 0."""
        return 1 if self.kind is NodeKind.GATE else 0


class SeqCircuit:
    """A sequential circuit / retiming graph with named nodes.

    Nodes are referenced by dense integer ids (their creation order).
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._nodes: List[Node] = []
        self._index: Dict[str, int] = {}
        self._fanouts: Optional[List[List[Tuple[int, int]]]] = None
        self._fanin_pairs: Optional[List[List[Tuple[int, int]]]] = None
        self._kind_list: Optional[List[NodeKind]] = None
        self._compiled: Optional[object] = None
        self._schedule: Optional[SccSchedule] = None
        self._journal: Optional[List[Edit]] = None

    def __getstate__(self) -> Dict[str, Any]:
        # Derived caches (fanouts, fanin pairs, kinds, the compiled CSR
        # kernel, the SCC schedule) are cheap to rebuild and can be
        # large; dropping them keeps pickles small — notably the circuit
        # payload shipped to probe worker processes, which receive the
        # compiled kernel through the zero-copy channel instead
        # (:mod:`repro.kernel.share`).
        state = self.__dict__.copy()
        state["_fanouts"] = None
        state["_fanin_pairs"] = None
        state["_kind_list"] = None
        state["_compiled"] = None
        state["_schedule"] = None
        # The journal records *local* mutations; a pickled copy starts a
        # new life (typically in a worker process) with no pending edits.
        state["_journal"] = None
        return state

    # ------------------------------------------------------------------
    # Mutation journal
    # ------------------------------------------------------------------
    def begin_journal(self) -> None:
        """Start (or reset) recording structural mutations.

        While enabled, every node insertion and every *effective*
        rewiring (no-op rewires are skipped entirely, see
        :meth:`set_fanins`) appends an :class:`Edit` record.  The
        incremental remapping layer drains the records with
        :meth:`take_journal` to patch the compiled CSR kernel and bound
        the dirty region, instead of recompiling from scratch.
        """
        self._journal = []

    def journaling(self) -> bool:
        """True while a mutation journal is recording."""
        return self._journal is not None

    def take_journal(self) -> List[Edit]:
        """Drain and return the recorded edits; recording continues.

        Raises :class:`ValueError` if :meth:`begin_journal` was never
        called — a silent empty answer would let callers believe no
        edits happened when in fact none were being recorded.
        """
        if self._journal is None:
            raise ValueError(
                f"{self.name}: no mutation journal; call begin_journal() first"
            )
        edits = self._journal
        self._journal = []
        return edits

    def end_journal(self) -> None:
        """Stop recording mutations and discard any pending records."""
        self._journal = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add(self, node: Node) -> int:
        if node.name in self._index:
            raise ValueError(f"duplicate node name {node.name!r}")
        nid = len(self._nodes)
        self._nodes.append(node)
        self._index[node.name] = nid
        self._fanouts = None
        self._fanin_pairs = None
        self._kind_list = None
        self._compiled = None
        self._schedule = None
        if self._journal is not None:
            self._journal.append(
                Edit("add", nid, tuple((p.src, p.weight) for p in node.fanins))
            )
        return nid

    def add_pi(self, name: str) -> int:
        """Add a primary input."""
        return self._add(Node(name, NodeKind.PI, None, []))

    def add_po(self, name: str, src: int, weight: int = 0) -> int:
        """Add a primary output observing ``src`` through ``weight`` FFs."""
        self._check_id(src)
        return self._add(Node(name, NodeKind.PO, None, [Pin(src, weight)]))

    def add_gate(
        self,
        name: str,
        func: TruthTable,
        fanins: Sequence[Tuple[int, int]],
    ) -> int:
        """Add a gate computing ``func`` over ``fanins`` = ``(src, weight)``.

        Fanin order matches the function's variable order: fanin ``i`` is
        variable ``i`` of ``func``.
        """
        if func.n != len(fanins):
            raise ValueError(
                f"gate {name!r}: function arity {func.n} != {len(fanins)} fanins"
            )
        pins = []
        for src, weight in fanins:
            self._check_id(src)
            pins.append(Pin(src, weight))
        return self._add(Node(name, NodeKind.GATE, func, pins))

    def add_gate_placeholder(self, name: str, func: TruthTable) -> int:
        """Add a gate with unwired fanins (two-phase construction).

        Sequential feedback (a gate reading its own output through
        registers) makes single-pass construction impossible; create all
        gates first, then wire them with :meth:`set_fanins`.  The circuit
        is invalid (``check`` fails) until every placeholder is wired.
        """
        return self._add(Node(name, NodeKind.GATE, func, []))

    def set_fanins(self, nid: int, fanins: Sequence[Tuple[int, int]]) -> None:
        """Wire (or rewire) the fanins of gate or PO ``nid``."""
        node = self.node(nid)
        if node.kind is NodeKind.PI:
            raise ValueError("PIs have no fanins")
        if (
            node.kind is NodeKind.GATE
            and node.func is not None
            and node.func.n != len(fanins)
        ):
            raise ValueError(
                f"gate {node.name!r}: function arity {node.func.n} != "
                f"{len(fanins)} fanins"
            )
        if node.kind is NodeKind.PO and len(fanins) != 1:
            raise ValueError("POs take exactly one fanin")
        pins = []
        for src, weight in fanins:
            self._check_id(src)
            pins.append(Pin(src, weight))
        if pins == node.fanins:
            # No-op rewire (e.g. re-adding an identical fanin pin):
            # keep the derived caches — notably the compiled CSR kernel,
            # whose wholesale invalidation is exactly what incremental
            # remapping exists to avoid — and journal nothing.
            return
        node.fanins = pins
        self._fanouts = None
        self._fanin_pairs = None
        self._compiled = None
        self._schedule = None
        if self._journal is not None:
            self._journal.append(
                Edit("rewire", nid, tuple((p.src, p.weight) for p in pins))
            )

    def rewire_pin(self, nid: int, index: int, src: int, weight: int) -> bool:
        """Rewire one fanin pin of ``nid``; return False for a no-op.

        The k-gate-edit convenience entry used by edit-and-remap
        callers (and the edit fuzzer): replaces fanin ``index`` with
        ``(src, weight)`` through :meth:`set_fanins`, so cache
        invalidation, no-op detection and journaling all apply.
        """
        node = self.node(nid)
        if not 0 <= index < len(node.fanins):
            raise ValueError(
                f"{node.name!r}: fanin index {index} out of range "
                f"(node has {len(node.fanins)} fanins)"
            )
        pins = [(p.src, p.weight) for p in node.fanins]
        if pins[index] == (src, weight):
            return False
        pins[index] = (src, weight)
        self.set_fanins(nid, pins)
        return True

    def _check_id(self, nid: int) -> None:
        if not 0 <= nid < len(self._nodes):
            raise ValueError(f"unknown node id {nid}")

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, nid: int) -> Node:
        self._check_id(nid)
        return self._nodes[nid]

    def id_of(self, name: str) -> int:
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def node_ids(self) -> range:
        return range(len(self._nodes))

    def kind(self, nid: int) -> NodeKind:
        return self._nodes[nid].kind

    def name_of(self, nid: int) -> str:
        return self._nodes[nid].name

    def fanins(self, nid: int) -> List[Pin]:
        return self._nodes[nid].fanins

    def func(self, nid: int) -> Optional[TruthTable]:
        return self._nodes[nid].func

    @property
    def pis(self) -> List[int]:
        return [i for i, n in enumerate(self._nodes) if n.kind is NodeKind.PI]

    @property
    def pos(self) -> List[int]:
        return [i for i, n in enumerate(self._nodes) if n.kind is NodeKind.PO]

    @property
    def gates(self) -> List[int]:
        return [i for i, n in enumerate(self._nodes) if n.kind is NodeKind.GATE]

    @property
    def n_gates(self) -> int:
        return sum(1 for n in self._nodes if n.kind is NodeKind.GATE)

    @property
    def n_ffs(self) -> int:
        """Flip-flop count with fanout sharing.

        A driver whose fanout edges carry weights ``w1..wm`` is realized
        with a register chain of length ``max(wi)`` tapped at each depth,
        so the circuit's register count is the sum of per-driver maxima.
        This matches the latch count of the equivalent BLIF netlist.
        """
        total = 0
        for nid in self.node_ids():
            outs = self.fanouts(nid)
            if outs:
                total += max(w for _dst, w in outs)
        return total

    @property
    def total_edge_weight(self) -> int:
        """Sum of all edge weights (the retiming-graph ``W`` total)."""
        return sum(p.weight for n in self._nodes for p in n.fanins)

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(src, dst, weight)`` for every edge."""
        for dst, node in enumerate(self._nodes):
            for pin in node.fanins:
                yield pin.src, dst, pin.weight

    def fanouts(self, nid: int) -> List[Tuple[int, int]]:
        """Fanout connections of ``nid`` as ``(dst, weight)`` pairs."""
        if self._fanouts is None:
            table: List[List[Tuple[int, int]]] = [[] for _ in self._nodes]
            for src, dst, weight in self.edges():
                table[src].append((dst, weight))
            self._fanouts = table
        return self._fanouts[nid]

    def fanin_pairs(self) -> List[List[Tuple[int, int]]]:
        """Per-node fanin adjacency as plain ``(src, weight)`` tuples.

        A flat, cached mirror of :meth:`fanins` for hot traversal loops
        (the expanded-circuit construction walks fanins once per visited
        copy): tuple unpacking avoids one :class:`Pin` attribute access
        per edge.  Invalidated by any structural mutation.
        """
        if self._fanin_pairs is None:
            self._fanin_pairs = [
                [(p.src, p.weight) for p in n.fanins] for n in self._nodes
            ]
        return self._fanin_pairs

    def kind_list(self) -> List[NodeKind]:
        """Per-node kinds as a dense list, cached.

        The hot traversal loops (one expanded-circuit construction per
        flow query) classify every visited copy by its node's kind;
        indexing this cached list replaces a method call plus attribute
        access per copy.  Invalidated by node insertion (rewiring keeps
        kinds intact).
        """
        if self._kind_list is None:
            self._kind_list = [n.kind for n in self._nodes]
        return self._kind_list

    def compiled(self) -> Any:
        """The circuit compiled into flat CSR arrays, cached.

        Returns the :class:`repro.kernel.csr.CompiledCircuit` backing
        the compiled label kernel; built on first use and invalidated
        by any structural mutation (node insertion or rewiring), like
        :meth:`fanin_pairs`.
        """
        if self._compiled is None:
            from repro.kernel.csr import compile_circuit

            self._compiled = compile_circuit(self)
        return self._compiled

    def scc_schedule(self) -> "SccSchedule":
        """The label fixpoint's SCC schedule (:class:`SccSchedule`), cached.

        Built on first use and invalidated by any structural mutation,
        exactly like :meth:`compiled`; pickles drop it.
        """
        if self._schedule is None:
            self._schedule = SccSchedule(self)
        return self._schedule

    def adopt_compiled(self, compiled: object) -> None:
        """Install an externally built compiled kernel (worker handoff).

        Probe worker processes receive the CSR arrays through the
        zero-copy channel (:mod:`repro.kernel.share`) and adopt them
        here so no worker recompiles the kernel.  The caller guarantees
        the arrays describe this circuit's current structure.
        """
        self._compiled = compiled

    def max_fanin(self) -> int:
        return max((len(n.fanins) for n in self._nodes if n.kind is NodeKind.GATE), default=0)

    def is_k_bounded(self, k: int) -> bool:
        """True when every gate has at most ``k`` fanins."""
        return self.max_fanin() <= k

    def stats(self) -> Dict[str, int]:
        return {
            "pis": len(self.pis),
            "pos": len(self.pos),
            "gates": self.n_gates,
            "ffs": self.n_ffs,
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"SeqCircuit({self.name!r}: {s['pis']} PI, {s['pos']} PO, "
            f"{s['gates']} gates, {s['ffs']} FFs)"
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def comb_topo_order(self) -> List[int]:
        """Topological order of the zero-weight (combinational) subgraph.

        Raises :class:`ValueError` when a combinational cycle exists.
        """
        n = len(self._nodes)
        indeg = [0] * n
        comb_fanouts: List[List[int]] = [[] for _ in range(n)]
        for src, dst, weight in self.edges():
            if weight == 0:
                indeg[dst] += 1
                comb_fanouts[src].append(dst)
        order = [i for i in range(n) if indeg[i] == 0]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for v in comb_fanouts[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    order.append(v)
        if len(order) != n:
            raise ValueError(f"{self.name}: combinational cycle detected")
        return order

    def sccs(self) -> List[List[int]]:
        """Strongly connected components of the full graph (all weights).

        Returned in reverse topological order of the condensation reversed,
        i.e. the list is a valid *topological* order of the condensation:
        every edge of the condensation goes from an earlier component to a
        later one.  Uses an iterative Tarjan to survive deep graphs.
        """
        n = len(self._nodes)
        fanout_ids: List[List[int]] = [[] for _ in range(n)]
        for src, dst, _ in self.edges():
            fanout_ids[src].append(dst)
        index = [0] * n
        lowlink = [0] * n
        on_stack = [False] * n
        visited = [False] * n
        stack: List[int] = []
        components: List[List[int]] = []
        counter = [1]

        for root in range(n):
            if visited[root]:
                continue
            work: List[Tuple[int, int]] = [(root, 0)]
            while work:
                v, pi = work[-1]
                if pi == 0:
                    visited[v] = True
                    index[v] = lowlink[v] = counter[0]
                    counter[0] += 1
                    stack.append(v)
                    on_stack[v] = True
                advanced = False
                for j in range(pi, len(fanout_ids[v])):
                    w = fanout_ids[v][j]
                    if not visited[w]:
                        work[-1] = (v, j + 1)
                        work.append((w, 0))
                        advanced = True
                        break
                    if on_stack[w]:
                        lowlink[v] = min(lowlink[v], index[w])
                if advanced:
                    continue
                work.pop()
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    components.append(comp)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
        components.reverse()
        return components

    def check(self) -> None:
        """Validate all structural invariants; raise ``ValueError`` if broken."""
        for nid, node in enumerate(self._nodes):
            if node.kind is NodeKind.PI and node.fanins:
                raise ValueError(f"PI {node.name!r} has fanins")
            if node.kind is NodeKind.PO:
                if len(node.fanins) != 1:
                    raise ValueError(f"PO {node.name!r} must have exactly one fanin")
                if self.fanouts(nid):
                    raise ValueError(f"PO {node.name!r} has fanouts")
            if node.kind is NodeKind.GATE:
                if node.func is None or node.func.n != len(node.fanins):
                    raise ValueError(f"gate {node.name!r} arity mismatch")
            for pin in node.fanins:
                if self._nodes[pin.src].kind is NodeKind.PO:
                    raise ValueError(f"{node.name!r} reads from PO")
        self.comb_topo_order()  # raises on combinational cycles

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "SeqCircuit":
        out = SeqCircuit(name or self.name)
        for node in self._nodes:
            out._add(Node(node.name, node.kind, node.func, list(node.fanins)))
        return out

    def with_weights(
        self, weight_fn: Callable[[int, int, int], int], name: Optional[str] = None
    ) -> "SeqCircuit":
        """Copy with edge weights rewritten by ``weight_fn(src, dst, w)``."""
        out = SeqCircuit(name or self.name)
        for dst, node in enumerate(self._nodes):
            pins = [Pin(p.src, weight_fn(p.src, dst, p.weight)) for p in node.fanins]
            out._add(Node(node.name, node.kind, node.func, pins))
        return out

    def apply_retiming(
        self, r: Sequence[int], name: Optional[str] = None
    ) -> "SeqCircuit":
        """Apply a retiming: ``w_r(e(u,v)) = w(e) + r(v) - r(u)``.

        Raises :class:`ValueError` when any retimed weight would be
        negative (an illegal retiming).
        """
        if len(r) != len(self._nodes):
            raise ValueError("retiming vector length mismatch")

        def retimed(src: int, dst: int, w: int) -> int:
            w_r = w + r[dst] - r[src]
            if w_r < 0:
                raise ValueError(
                    f"illegal retiming: edge {self.name_of(src)!r}->"
                    f"{self.name_of(dst)!r} weight {w} becomes {w_r}"
                )
            return w_r

        return self.with_weights(retimed, name)

    def clock_period(self) -> int:
        """Longest purely combinational path, in unit gate delays.

        This is the clock period of the circuit *as placed* (no retiming):
        the maximum total gate delay along any register-free path.
        """
        order = self.comb_topo_order()
        arrival = [0] * len(self._nodes)
        best = 0
        for v in order:
            node = self._nodes[v]
            worst = 0
            for pin in node.fanins:
                if pin.weight == 0:
                    worst = max(worst, arrival[pin.src])
            arrival[v] = worst + node.delay
            best = max(best, arrival[v])
        return best


class SccSchedule:
    """The order in which the label fixpoint visits a circuit's gates.

    Computed once per circuit structure (:meth:`SeqCircuit.scc_schedule`)
    from :meth:`SeqCircuit.sccs` and :meth:`SeqCircuit.comb_topo_order`:

    * ``order`` is the combinational topological order and ``pos[v]``
      node ``v``'s position in it;
    * ``sccs`` lists the gate SCCs in the topological order of the
      condensation: an acyclic singleton gate as its bare id, a cyclic
      SCC (self-loops included) as its members sorted by position;
    * ``scc_of[v]`` is the index into ``sccs`` of gate ``v``'s SCC, and
      -1 for PIs and POs, so "``u`` lies outside SCC ``sid``" is one
      list read, with no per-SCC member set.
    """

    __slots__ = ("order", "pos", "scc_of", "sccs")

    def __init__(self, circuit: SeqCircuit) -> None:
        n = len(circuit)
        self.order: List[int] = circuit.comb_topo_order()
        pos = [0] * n
        for i, v in enumerate(self.order):
            pos[v] = i
        self.pos: List[int] = pos
        scc_of = [-1] * n
        sccs: List[Union[int, List[int]]] = []
        for component in circuit.sccs():
            members = [v for v in component if circuit.kind(v) is NodeKind.GATE]
            if not members:
                continue
            sid = len(sccs)
            for v in members:
                scc_of[v] = sid
            if len(members) > 1:
                members.sort(key=pos.__getitem__)
                sccs.append(members)
            elif any(pin.src == members[0] for pin in circuit.fanins(members[0])):
                sccs.append(members)
            else:
                sccs.append(members[0])
        self.scc_of: List[int] = scc_of
        self.sccs = sccs
