"""Shared circuit-building helpers and reference oracles for the tests."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.boolfn.truthtable import TruthTable, eval_gate_columns
from repro.comb.maxflow import INF, FlowNetwork, SplitNetwork
from repro.core.expanded import DEFAULT_MAX_COPIES, Copy, ExpansionOverflow
from repro.core.labels import LabelSolver
from repro.kernel.expand import PackedCutArena
from repro.netlist.graph import NodeKind, SeqCircuit
from repro.retime.leiserson import RetimingResult, _wd_matrices
from repro.retime.mdr import min_feasible_period
from repro.rng import default_rng

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
@dataclass
class PartialExpansion:
    """The partial expanded circuit of one height query, on tuple copies.

    The definition-level twin of :class:`repro.kernel.expand.
    PackedExpansion`: copies are ``(u, w)`` tuples and ``edges`` holds
    ``(child_copy, parent_copy)`` pairs oriented toward the root.
    """

    root: Copy
    interior: List[Copy] = field(default_factory=list)
    candidates: List[Copy] = field(default_factory=list)
    leaves: List[Copy] = field(default_factory=list)
    edges: List[Tuple[Copy, Copy]] = field(default_factory=list)
    blocked: bool = False


def expand_partial(
    circuit: SeqCircuit,
    v: int,
    phi: int,
    height_of: Callable[[int, int], int],
    threshold: int,
    extra_depth: int = 0,
    max_copies: int = DEFAULT_MAX_COPIES,
) -> PartialExpansion:
    """Partial expansion of ``E_v`` on tuple copies (the oracle).

    ``height_of(u, w)`` returns ``l(u) - phi*w + 1``.  Copies above
    ``threshold`` are interior; gate copies with height in
    ``(threshold - extra_depth*phi, threshold]`` are expandable
    candidates; everything at or below that floor (and every PI copy at
    or below the threshold) is a leaf.  Repeated identical fanin pins
    contribute one edge per *distinct* pin.  Raises
    :class:`ExpansionOverflow` past ``max_copies`` copies.
    """
    if circuit.kind(v) is not NodeKind.GATE:
        raise ValueError("expanded circuits are rooted at gates")
    floor = threshold - extra_depth * phi
    result = PartialExpansion(root=(v, 0))
    seen: Dict[Copy, str] = {(v, 0): "interior"}
    stack: List[Copy] = [(v, 0)]
    result.interior.append((v, 0))
    count = 1
    while stack:
        u, w = stack.pop()
        for src, pin_w in dict.fromkeys(circuit.fanin_pairs()[u]):
            child: Copy = (src, w + pin_w)
            tier = seen.get(child)
            if tier is None:
                height = height_of(src, child[1])
                kind = circuit.kind(src)
                if height > threshold:
                    if kind is NodeKind.PI:
                        result.blocked = True
                        return result
                    tier = "interior"
                elif kind is NodeKind.GATE and height > floor:
                    tier = "candidate"
                else:
                    tier = "leaf"
                count += 1
                if count > max_copies:
                    raise ExpansionOverflow(circuit.name_of(v), max_copies)
                seen[child] = tier
                if tier == "interior":
                    result.interior.append(child)
                    stack.append(child)
                elif tier == "candidate":
                    result.candidates.append(child)
                    stack.append(child)
                else:
                    result.leaves.append(child)
            result.edges.append((child, (u, w)))
    return result


def flow_cut(expansion: PartialExpansion, max_cut: int) -> Optional[List[Copy]]:
    """Bounded min-cut of an unblocked tuple-copy expansion, by an actual
    flow solve on a :class:`SplitNetwork` (no frontier shortcut)."""
    assert len(expansion.edges) == len(set(expansion.edges)), (
        "partial expansion carries duplicate (child, parent) edges"
    )
    if not expansion.leaves and not expansion.candidates:
        return []  # the cone closes on constant generators: zero inputs
    net = SplitNetwork()
    for copy in expansion.interior:
        net.add_dag_node(copy, cuttable=False)
        net.attach_sink(copy)
    for copy in expansion.candidates:
        net.add_dag_node(copy, cuttable=True)
    for copy in expansion.leaves:
        net.add_dag_node(copy, cuttable=True)
        net.attach_source(copy)
    for child, parent in expansion.edges:
        net.add_dag_edge(child, parent)
    if net.max_flow(max_cut) > max_cut:
        return None
    cut = net.cut_nodes()
    cut.sort()
    return cut


def oracle_height_cut(
    circuit: SeqCircuit,
    v: int,
    phi: int,
    labels: Sequence[int],
    threshold: int,
    max_cut: int,
    extra_depth: int = 0,
    max_copies: int = DEFAULT_MAX_COPIES,
) -> Optional[List[Copy]]:
    """:func:`repro.core.kcut.find_height_cut` on tuple copies."""
    expansion = expand_partial(
        circuit, v, phi, lambda u, w: labels[u] - phi * w + 1, threshold,
        extra_depth=extra_depth, max_copies=max_copies,
    )
    return None if expansion.blocked else flow_cut(expansion, max_cut)


def oracle_cone_function(
    circuit: SeqCircuit,
    root: int,
    cut: Sequence[Copy],
    max_copies: int = DEFAULT_MAX_COPIES,
) -> TruthTable:
    """:func:`repro.core.expanded.sequential_cone_function` on tuple
    copies: a post-order walk, then every gate through the generic
    minterm expansion :func:`eval_gate_columns`."""
    cut = list(cut)
    m = len(cut)
    if m > 20:
        raise ValueError(f"cut of {m} copies is too wide for dense evaluation")
    values: Dict[Copy, int] = {
        copy: TruthTable.var(i, m).bits for i, copy in enumerate(cut)
    }
    order: List[Copy] = []
    done: Set[Copy] = set()
    stack: List[Tuple[Copy, bool]] = [((root, 0), False)]
    guard = 0
    while stack:
        copy, processed = stack.pop()
        if processed:
            done.add(copy)
            order.append(copy)
            continue
        if copy in done or copy in values:
            continue
        stack.append((copy, True))
        u, w = copy
        if circuit.kind(u) is not NodeKind.GATE:
            raise ValueError(f"cut does not cover copy ({circuit.name_of(u)}, {w})")
        guard += 1
        if guard > max_copies:
            raise ExpansionOverflow(circuit.name_of(root), max_copies)
        for pin in circuit.fanins(u):
            child = (pin.src, w + pin.weight)
            if child not in values and child not in done:
                stack.append((child, False))
    for u, w in order:
        node = circuit.node(u)
        cols = [values[(pin.src, w + pin.weight)] for pin in node.fanins]
        values[(u, w)] = eval_gate_columns(node.func, cols, m)
    return TruthTable(m, values[(root, 0)])


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


def justified_predecessors(
    circuit: SeqCircuit, labels: Sequence[int], phi: int, v: int
) -> List[int]:
    """The predecessor set ``pi[v]`` of the paper (empty when ``l(v)<=1``)."""
    lv = labels[v]
    if lv <= 1:
        return []
    return [
        pin.src
        for pin in circuit.fanins(v)
        if labels[pin.src] - phi * pin.weight + 1 >= lv
    ]


def grounded_members(
    circuit: SeqCircuit,
    labels: Sequence[int],
    phi: int,
    members: Sequence[int],
    member_set: Set[int],
) -> Set[int]:
    """SCC members whose labels are justified from outside the SCC.

    The definition behind positive loop detection: seeds are members
    with ``l(v) <= 1`` (trivially supported) or with a justifying
    predecessor outside the SCC; justification edges inside the SCC
    propagate groundedness forward.  An empty result means the SCC is
    "totally isolated from the PIs" in the predecessor graph — the PLD
    infeasibility signal that :func:`repro.core.pld.has_seed` answers
    without building the set.
    """
    grounded: Set[int] = set()
    fwd: Dict[int, List[int]] = {v: [] for v in members}
    queue: List[int] = []
    for v in members:
        lv = labels[v]
        if lv <= 1:
            grounded.add(v)
            queue.append(v)
            continue
        for u in justified_predecessors(circuit, labels, phi, v):
            if u in member_set:
                fwd[u].append(v)
            elif v not in grounded:
                grounded.add(v)
                queue.append(v)
    while queue:
        u = queue.pop()
        for v in fwd.get(u, ()):
            if v not in grounded:
                grounded.add(v)
                queue.append(v)
    return grounded


class OracleLabelSolver(LabelSolver):
    """The label computation straight from its definition.

    The reference the default solver is held to, label for label:

    * every update takes the fanin maximum over ``circuit.fanins`` (not
      the compiled CSR arrays) and keeps no worklist bookkeeping;
    * every cut query expands ``E_v`` with the tuple-copy
      :func:`expand_partial` and solves the
      node-split network with Edmonds-Karp (:func:`oracle_cut` on a
      :class:`~repro.comb.maxflow.FlowNetwork`);
    * the memo never answers, so every update re-queries and
      :meth:`expansion_for` always misses;
    * every SCC runs a plain round-robin sweep — each round updates every
      member in topological order — with the same round budget and PLD
      patience, and each PLD check builds the whole grounded set
      (:func:`grounded_members`).

    It inherits the constructor and the base class's ``_run``, which
    walks the circuit's cached SCC schedule.
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

    def _update(self, v: int) -> bool:
        self.stats.updates += 1
        pins = self.circuit.fanins(v)
        if not pins:
            return False  # constant generators keep label 1
        labels, phi = self.labels, self.phi
        big_l = max(labels[p.src] - phi * p.weight for p in pins)
        if big_l < labels[v]:
            return False
        if self._has_kcut(v, big_l):
            new = big_l
        elif self.resyn_hook is not None:
            self.stats.resyn_calls += 1
            if self.resyn_hook(self, v, big_l):
                self.stats.resyn_wins += 1
                new = big_l
            else:
                new = big_l + 1
        else:
            new = big_l + 1
        if new > labels[v]:
            labels[v] = new
            return True
        return False

    def _grounded(self, members: List[int], sid: int) -> bool:
        self.stats.pld_checks += 1
        return bool(
            grounded_members(
                self.circuit, self.labels, self.phi, members, set(members)
            )
        )

    def _run_scc(self, members: List[int], sid: int, max_rounds: int) -> bool:
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
                if self._grounded(members, sid):
                    isolated_streak = 0
                else:
                    isolated_streak += 1
                    if isolated_streak >= self.PLD_PATIENCE:
                        return False
        return False


# ----------------------------------------------------------------------
# MDR oracles: the Bellman-Ford and Karp computations the Howard engine
# in repro.retime.mdr replaced, kept as definition-level references.
# ----------------------------------------------------------------------
def has_positive_cycle(circuit: SeqCircuit, ratio: Fraction) -> bool:
    """True iff some cycle has ``d(C) / w(C) > ratio`` (Bellman-Ford).

    With ``ratio = p/q`` this asks for a cycle of positive total gain
    under edge gains ``q * d(src) - p * w``: longest-path relaxation
    from an implicit all-zero super-source still improves after ``n``
    rounds exactly when one exists.
    """
    p, q = ratio.numerator, ratio.denominator
    edges = [
        (s, d, q * circuit.node(s).delay - p * w)
        for s, d, w in circuit.edges()
    ]
    dist = [0] * len(circuit)
    for _ in range(len(circuit) + 1):
        improved = False
        for s, d, g in edges:
            cand = dist[s] + g
            if cand > dist[d]:
                dist[d] = cand
                improved = True
        if not improved:
            return False
    return True


def bf_min_feasible_period(circuit: SeqCircuit) -> int:
    """Smallest integer phi with no ``d(C) > phi * w(C)``, by binary
    search over :func:`has_positive_cycle`; ``ValueError`` on a
    combinational cycle."""
    lo, hi = 1, max(1, circuit.n_gates)
    if has_positive_cycle(circuit, Fraction(hi, 1)):
        raise ValueError("combinational cycle: MDR ratio is unbounded")
    while lo < hi:
        mid = (lo + hi) // 2
        if has_positive_cycle(circuit, Fraction(mid, 1)):
            lo = mid + 1
        else:
            hi = mid
    return lo


def bf_mdr_ratio(circuit: SeqCircuit) -> Fraction:
    """Exact MDR (0 when acyclic) by rational binary search: the answer
    is the unique fraction with denominator at most the total register
    count inside an interval narrower than ``1 / (2 * q_max**2)``."""
    q_max = max(1, circuit.total_edge_weight)
    if not has_positive_cycle(circuit, Fraction(0, 1)):
        return Fraction(0, 1)
    lo, hi = Fraction(0, 1), Fraction(circuit.n_gates + 1, 1)
    while hi - lo > Fraction(1, 2 * q_max * q_max):
        mid = (lo + hi) / 2
        if has_positive_cycle(circuit, mid):
            lo = mid
        else:
            hi = mid
    answer = ((lo + hi) / 2).limit_denominator(q_max)
    if answer <= lo:
        answer = hi.limit_denominator(q_max)
    return answer


def karp_mdr(circuit: SeqCircuit) -> Optional[Fraction]:
    """Exact MDR as Karp's maximum cycle mean (``None`` when acyclic).

    Runs on the condensed register graph: one node per register, zero
    links along a register chain, and from the last register of each
    weighted edge to the first register of every weighted edge reachable
    through zero-weight paths, costing the largest delay accumulated in
    between.  A condensed cycle crosses ``w(C)`` edges at cost ``d(C)``.
    ``ValueError`` on a combinational cycle.
    """
    delays = [circuit.node(v).delay for v in circuit.node_ids()]
    weighted = sorted({e for e in circuit.edges() if e[2] >= 1})
    first_reg: List[List[int]] = [[] for _ in range(len(circuit))]
    edges: List[Tuple[int, int, int]] = []
    n_regs = 0
    tails = []
    for src, dst, weight in weighted:
        first_reg[src].append(n_regs)
        for i in range(weight - 1):
            edges.append((n_regs + i, n_regs + i + 1, 0))
        tails.append((n_regs + weight - 1, dst))
        n_regs += weight
    # best[v]: first register -> max delay from v (inclusive) to it.
    best: List[Dict[int, int]] = [{} for _ in range(len(circuit))]
    for v in reversed(circuit.comb_topo_order()):
        mine = best[v]
        for reg in first_reg[v]:
            mine[reg] = max(mine.get(reg, 0), delays[v])
        for dst, weight in circuit.fanouts(v):
            if weight == 0:
                for reg, cost in best[dst].items():
                    if cost + delays[v] > mine.get(reg, -1):
                        mine[reg] = cost + delays[v]
    for tail, dst in tails:
        edges.extend((tail, reg, cost) for reg, cost in best[dst].items())
    n = n_regs + 1  # + a super-source reaching every register
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for s, d, cost in edges:
        adj[s].append((d, cost))
    adj[n_regs] = [(v, 0) for v in range(n_regs)]
    dist: List[List[Optional[int]]] = [[None] * n for _ in range(n + 1)]
    dist[0][n_regs] = 0
    for k in range(1, n + 1):
        prev, row = dist[k - 1], dist[k]
        for u in range(n):
            if prev[u] is None:
                continue
            for v, cost in adj[u]:
                if row[v] is None or prev[u] + cost > row[v]:
                    row[v] = prev[u] + cost
    mu: Optional[Fraction] = None
    for v in range(n):
        if dist[n][v] is None:
            continue
        worst = min(
            (
                Fraction(dist[n][v] - dist[k][v], n - k)
                for k in range(n)
                if dist[k][v] is not None
            ),
            default=None,
        )
        if worst is not None and (mu is None or worst > mu):
            mu = worst
    return mu


def karp_min_feasible_period(circuit: SeqCircuit) -> int:
    """``max(1, ceil(MDR))`` from :func:`karp_mdr`."""
    mu = karp_mdr(circuit)
    return 1 if mu is None else max(1, math.ceil(mu))


#: The exact LP builds the all-pairs W/D matrices; refuse above this size.
EXACT_NODE_LIMIT = 1200


def minimize_registers_exact(
    circuit: SeqCircuit,
    phi: int,
    pipelined: bool = True,
) -> RetimingResult:
    """Exact minimum *total-edge-weight* retiming at period ``phi``.

    This is Leiserson-Saxe's state-minimization objective (their OPT LP):
    ``sum_e w_r(e) = const + sum_v r(v) * (indeg(v) - outdeg(v))`` is
    linear in the lags, and the constraint matrix (legality difference
    constraints plus the period constraints over the W/D matrices) is
    totally unimodular — so the LP relaxation solved by
    ``scipy.optimize.linprog`` has an integral optimum.  Note the
    objective counts every edge's registers separately; the
    fanout-*sharing* cost (``regmin.shared_register_cost``) needs the
    Leiserson-Saxe fanout gadget, for which ``regmin.minimize_registers``
    provides the hill-climbing heuristic this oracle bounds.

    ``pipelined=False`` anchors PIs and POs (strict retiming); otherwise
    I/O lags are free and the solution is normalized afterwards.
    Quadratic preprocessing — guarded to :data:`EXACT_NODE_LIMIT` nodes.
    Needs numpy and scipy, imported here so the module loads without them.
    """
    import numpy as np
    from scipy.optimize import linprog

    n = len(circuit)
    if n > EXACT_NODE_LIMIT:
        raise ValueError(
            f"exact register minimization is quadratic and limited to "
            f"{EXACT_NODE_LIMIT} nodes ({n} given)"
        )
    if pipelined and phi < min_feasible_period(circuit):
        raise ValueError(f"period {phi} is below the MDR bound")

    # Objective: sum_v r(v) * (indeg - outdeg).
    coef = np.zeros(n)
    for src, dst, _w in circuit.edges():
        coef[dst] += 1.0
        coef[src] -= 1.0

    rows = []
    rhs = []

    def leq(u: int, v: int, bound: int) -> None:
        """Constraint r(u) - r(v) <= bound."""
        row = np.zeros(n)
        row[u] += 1.0
        row[v] -= 1.0
        rows.append(row)
        rhs.append(float(bound))

    for src, dst, w in circuit.edges():
        leq(src, dst, w)
    big_w, big_d = _wd_matrices(circuit)
    inf = 1 << 29
    for u in range(n):
        row_w, row_d = big_w[u], big_d[u]
        for v in range(n):
            if u != v and row_d[v] > phi and row_w[v] < inf:
                leq(u, v, row_w[v] - 1)
    # Anchor: one reference node (objective is shift-invariant); strict
    # mode pins every PI and PO to the reference.
    eq_rows = []
    eq_rhs = []
    anchor = np.zeros(n)
    anchor[0] = 1.0
    eq_rows.append(anchor)
    eq_rhs.append(0.0)
    if not pipelined:
        anchored = list(circuit.pis) + list(circuit.pos)
        for x in anchored:
            for y in anchored:
                if x < y:
                    leq(x, y, 0)
                    leq(y, x, 0)
        if anchored:
            row = np.zeros(n)
            row[anchored[0]] = 1.0
            eq_rows.append(row)
            eq_rhs.append(0.0)

    result = linprog(
        coef,
        A_ub=np.vstack(rows),
        b_ub=np.asarray(rhs),
        A_eq=np.vstack(eq_rows),
        b_eq=np.asarray(eq_rhs),
        bounds=[(None, None)] * n,
        method="highs",
    )
    if not result.success:
        raise ValueError(
            f"{circuit.name}: no legal retiming with period {phi} "
            f"({result.message})"
        )
    r = [int(round(x)) for x in result.x]
    retimed = circuit.apply_retiming(r, name=f"{circuit.name}_regopt{phi}")
    if retimed.clock_period() > phi:  # pragma: no cover - LP is exact
        raise AssertionError("exact retiming violated the period")
    base = min((r[pi] for pi in circuit.pis), default=0)
    po_lags = {circuit.name_of(po): r[po] - base for po in circuit.pos}
    return RetimingResult(
        circuit=retimed,
        r=r,
        period=retimed.clock_period(),
        po_lags=po_lags,
    )
