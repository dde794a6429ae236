"""Shared circuit-building helpers and reference oracles for the tests."""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.compat import default_rng
from repro.boolfn.truthtable import TruthTable
from repro.comb.maxflow import INF, FlowNetwork, SplitNetwork
from repro.core.expanded import expand_partial
from repro.core.labels import LabelSolver
from repro.kernel.expand import PackedCutArena
from repro.netlist.graph import NodeKind, SeqCircuit

AND2 = TruthTable.from_function(2, lambda a, b: a and b)
OR2 = TruthTable.from_function(2, lambda a, b: a or b)
XOR2 = TruthTable.from_function(2, lambda a, b: a != b)
NAND2 = TruthTable.from_function(2, lambda a, b: not (a and b))
NOT1 = TruthTable.from_function(1, lambda a: not a)
BUF = TruthTable.from_function(1, lambda a: a)
MAJ3 = TruthTable.from_function(3, lambda a, b, c: a + b + c >= 2)

GATE_LIB = {"and": AND2, "or": OR2, "xor": XOR2, "nand": NAND2}


def xor_chain(n: int, name: str = "xorchain") -> SeqCircuit:
    """Combinational chain: out = x0 ^ x1 ^ ... ^ x{n-1} built as a path."""
    c = SeqCircuit(name)
    pis = [c.add_pi(f"x{i}") for i in range(n)]
    acc = pis[0]
    for i in range(1, n):
        acc = c.add_gate(f"g{i}", XOR2, [(acc, 0), (pis[i], 0)])
    c.add_po("out", acc)
    return c


def and_tree(n_leaves: int, name: str = "andtree") -> SeqCircuit:
    """Balanced combinational AND tree over ``n_leaves`` inputs."""
    c = SeqCircuit(name)
    level = [c.add_pi(f"x{i}") for i in range(n_leaves)]
    counter = 0
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            g = c.add_gate(f"a{counter}", AND2, [(level[i], 0), (level[i + 1], 0)])
            counter += 1
            nxt.append(g)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    c.add_po("out", level[0])
    return c


def random_dag(
    n_inputs: int,
    n_gates: int,
    seed: int,
    k_in: int = 2,
    name: str = "randdag",
) -> SeqCircuit:
    """Random combinational 2-bounded DAG with one PO per sink gate."""
    rng = default_rng(seed)
    c = SeqCircuit(name)
    pool: List[int] = [c.add_pi(f"x{i}") for i in range(n_inputs)]
    ops = list(GATE_LIB.values())
    for i in range(n_gates):
        fan = [int(rng.integers(0, len(pool))) for _ in range(k_in)]
        func = ops[int(rng.integers(0, len(ops)))]
        g = c.add_gate(f"g{i}", func, [(pool[f], 0) for f in fan])
        pool.append(g)
    sinks = [g for g in c.gates if not c.fanouts(g)]
    for j, g in enumerate(sinks):
        c.add_po(f"out{j}", g)
    c.check()
    return c


def lfsr(n_bits: int, taps: Sequence[int], name: str = "lfsr") -> SeqCircuit:
    """A Fibonacci LFSR as a retiming graph.

    Bit 0's next value is the XOR of the tapped bits; bits shift down.
    Registers are edge weights: each stage output is the previous stage
    delayed by one.
    """
    c = SeqCircuit(name)
    en = c.add_pi("en")
    # feedback = xor of taps; represent stage i value as feedback delayed
    # by (i+1) cycles.
    fb = c.add_gate_placeholder("fb", _xor_table(len(taps) + 1))
    pins: List[Tuple[int, int]] = [(en, 0)]
    for t in taps:
        pins.append((fb, t + 1))
    c.set_fanins(fb, pins)
    c.add_po("out", fb, n_bits)
    c.check()
    return c


def _xor_table(n: int) -> TruthTable:
    t = TruthTable.const(n, False)
    for i in range(n):
        t = t ^ TruthTable.var(i, n)
    return t


def random_seq_circuit(
    n_inputs: int,
    n_gates: int,
    seed: int,
    feedback: int = 3,
    name: str = "randseq",
) -> SeqCircuit:
    """Random 2-bounded sequential circuit with registered feedback loops.

    Builds a random combinational DAG, then rewires ``feedback`` gate
    inputs to later gates through 1-2 registers, creating genuine loops
    while keeping the combinational subgraph acyclic.
    """
    rng = default_rng(seed)
    c = SeqCircuit(name)
    pool: List[int] = [c.add_pi(f"x{i}") for i in range(n_inputs)]
    ops = list(GATE_LIB.values())
    gate_ids: List[int] = []
    for i in range(n_gates):
        fan = [int(rng.integers(0, len(pool))) for _ in range(2)]
        func = ops[int(rng.integers(0, len(ops)))]
        g = c.add_gate(f"g{i}", func, [(pool[f], 0) for f in fan])
        pool.append(g)
        gate_ids.append(g)
    # Registered feedback: rewire an early gate's input to a later gate.
    for _ in range(feedback):
        if len(gate_ids) < 2:
            break
        early = int(rng.integers(0, len(gate_ids) - 1))
        late = int(rng.integers(early + 1, len(gate_ids)))
        pin_idx = int(rng.integers(0, 2))
        weight = int(rng.integers(1, 3))
        target = gate_ids[early]
        pins = [(p.src, p.weight) for p in c.fanins(target)]
        pins[pin_idx] = (gate_ids[late], weight)
        c.set_fanins(target, pins)
    sinks = [g for g in c.gates if not c.fanouts(g)]
    if not sinks:
        sinks = [gate_ids[-1]]
    for j, g in enumerate(sinks):
        c.add_po(f"out{j}", g)
    c.check()
    return c


def brute_force_min_depth(circuit: SeqCircuit, k: int) -> Dict[int, int]:
    """Exponential reference computation of FlowMap labels (tiny circuits).

    Enumerates, for every gate, all K-feasible cuts by exhaustive search
    over subsets of its fan-in cone, and computes the optimal label by
    dynamic programming over topological order.
    """
    from itertools import combinations

    from repro.comb.cone import fanin_cone

    labels: Dict[int, int] = {}
    for v in circuit.comb_topo_order():
        kind = circuit.kind(v)
        if kind is NodeKind.PI:
            labels[v] = 0
            continue
        if kind is NodeKind.PO:
            labels[v] = labels[circuit.fanins(v)[0].src]
            continue
        cone = sorted(fanin_cone(circuit, v) - {v})
        best = None
        for size in range(1, min(k, len(cone)) + 1):
            for cut in combinations(cone, size):
                if not _covers(circuit, v, set(cut)):
                    continue
                height = max(labels[u] for u in cut)
                cand = height + 1
                best = cand if best is None else min(best, cand)
        if best is None:  # constant gate
            best = 1
        labels[v] = best
    return labels


def _covers(circuit: SeqCircuit, root: int, cut: set) -> bool:
    """True when every path from outside reaches ``root`` through ``cut``."""
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        for pin in circuit.fanins(v):
            src = pin.src
            if src in cut or src in seen:
                continue
            if circuit.kind(src) is NodeKind.PI:
                return False
            seen.add(src)
            stack.append(src)
    return True


# ----------------------------------------------------------------------
# Reference oracles
# ----------------------------------------------------------------------
def oracle_cut(expansion, max_cut, net):
    """Bounded min-cut of a tuple-copy expansion, by explicit max flow.

    Node-split construction: interior copies get an INF split edge and
    feed the sink, candidates and leaves a unit split edge, leaves hang
    off the source.  ``net`` is an empty flow network (``FlowNetwork``
    or ``DinicNetwork``).  Returns the source-side residual cut sorted
    by ``(u, w)``, or ``None`` when blocked or wider than ``max_cut``.
    """
    if expansion.blocked:
        return None
    source = net.add_node()
    sink = net.add_node()
    half = {}
    for copy in expansion.interior:
        a, b = net.add_node(), net.add_node()
        half[copy] = (a, b)
        net.add_edge(a, b, INF)
        net.add_edge(a, sink, INF)
    for copy in list(expansion.candidates) + list(expansion.leaves):
        a, b = net.add_node(), net.add_node()
        half[copy] = (a, b)
        net.add_edge(a, b, 1)
    for copy in expansion.leaves:
        net.add_edge(source, half[copy][0], INF)
    for child, parent in expansion.edges:
        net.add_edge(half[child][1], half[parent][0], INF)
    if net.max_flow(source, sink, max_cut) > max_cut:
        return None
    reach = net.residual_reachable(source)
    return sorted(
        copy for copy, (a, b) in half.items() if a in reach and b not in reach
    )


def ek_split_network() -> SplitNetwork:
    """A :class:`SplitNetwork` on the Edmonds-Karp reference solver."""
    net = SplitNetwork()
    net.net = FlowNetwork()
    net.reset()  # re-creates source and sink on the new network
    return net


def ek_packed_arena() -> PackedCutArena:
    """A :class:`PackedCutArena` on the Edmonds-Karp reference solver."""
    arena = PackedCutArena()
    arena.net = FlowNetwork()
    return arena


class OracleLabelSolver(LabelSolver):
    """The label computation straight from its definition.

    The reference the default solver is held to, label for label:

    * every cut query expands ``E_v`` with the tuple-copy
      :func:`~repro.core.expanded.expand_partial` and solves the
      node-split network with Edmonds-Karp (:func:`oracle_cut` on a
      :class:`~repro.comb.maxflow.FlowNetwork`);
    * the memo never answers, so every update re-queries and
      :meth:`expansion_for` always misses;
    * every SCC runs a plain round-robin sweep — each round updates every
      member in topological order — with the same round budget and PLD
      patience.
    """

    def _memo_valid(self, v: int, threshold: int) -> bool:
        return False

    def _has_kcut(self, v: int, threshold: int) -> bool:
        labels, phi = self.labels, self.phi
        expansion = expand_partial(
            self.circuit,
            v,
            phi,
            lambda u, w: labels[u] - phi * w + 1,
            threshold,
            extra_depth=self.extra_depth,
            max_copies=self.max_copies,
        )
        self.stats.flow_queries += 1
        return oracle_cut(expansion, self.k, FlowNetwork()) is not None

    def _run_scc(
        self,
        members: List[int],
        member_set: Set[int],
        order_pos: Dict[int, int],
        max_rounds: int,
    ) -> bool:
        isolated_streak = 0
        for _round in range(max_rounds):
            self._check_deadline()
            self.stats.rounds += 1
            changed = False
            for v in members:
                if self._update(v):
                    changed = True
            if not changed:
                return True
            if self.pld:
                if self._grounded(members, member_set):
                    isolated_streak = 0
                else:
                    isolated_streak += 1
                    if isolated_streak >= self.PLD_PATIENCE:
                        return False
        return False

