"""Partial expanded circuits and cut queries on packed copies.

The compiled twin of :func:`repro.core.expanded.expand_partial` +
:func:`repro.core.kcut.cut_on_expansion`: copies of the expanded
circuit ``E_v`` are packed integers ``(w << shift) | u``
(:mod:`repro.kernel.csr`) instead of ``(u, w)`` tuples, heights are
computed inline from the label list (no per-copy callable dispatch),
and the node-split flow network is built straight into a flat-array
max-flow solver.

Both constructions traverse the circuit in the identical order and
apply the identical tier rules, so the compiled engine classifies the
same copies into the same tiers and — because the source side of the
residual min-cut is unique for a given network, independent of the
max-flow engine — returns the same cut sets.  ``tests/kernel``
asserts this differentially against the object engine.

An expansion without candidate copies — every query at the paper's
``extra_depth=0`` — needs no flow network at all: its cut is read off
the frontier (:func:`frontier_cut`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.expanded import (
    DEFAULT_MAX_COPIES,
    ExpansionOverflow,
    PartialExpansion,
)
from repro.kernel.csr import KIND_GATE, KIND_PI, CompiledCircuit
from repro.kernel.dinic import INF, DinicNetwork

if TYPE_CHECKING:
    from repro.analysis.sanitize import FrontierSanitizer
    from repro.comb.maxflow import FlowNetwork


@dataclass
class PackedExpansion:
    """The partial expanded circuit of one height query, packed.

    Mirrors :class:`repro.core.expanded.PartialExpansion` with copies as
    packed ints under the recorded ``shift``; ``edges`` is a flat list
    of alternating ``child, parent`` packed copies (pairs at even
    offsets), oriented toward the root like the object edge list.
    """

    root: int
    shift: int
    interior: List[int] = field(default_factory=list)
    candidates: List[int] = field(default_factory=list)
    leaves: List[int] = field(default_factory=list)
    edges: List[int] = field(default_factory=list)
    blocked: bool = False

    def unpack_copies(self, packed: Sequence[int]) -> List[Tuple[int, int]]:
        """Decode a packed copy list to ``(u, w)`` tuples."""
        mask = (1 << self.shift) - 1
        shift = self.shift
        return [(p & mask, p >> shift) for p in packed]


def expand_partial_packed(
    cc: CompiledCircuit,
    v: int,
    phi: int,
    labels: Sequence[int],
    threshold: int,
    extra_depth: int = 0,
    max_copies: int = DEFAULT_MAX_COPIES,
    name_of: Optional[Callable[[int], str]] = None,
) -> PackedExpansion:
    """Partial expansion of ``E_v`` on the compiled circuit.

    Copy heights are ``labels[u] - phi*w + 1``; tier rules (interior
    above ``threshold``, expandable gate candidates down to the
    ``extra_depth`` floor, leaves below) match
    :func:`repro.core.expanded.expand_partial` exactly.  ``name_of``
    resolves the root's display name for the
    :class:`~repro.core.expanded.ExpansionOverflow` raised past
    ``max_copies``.
    """
    if cc.kinds[v] != KIND_GATE:
        raise ValueError("expanded circuits are rooted at gates")
    floor = threshold - extra_depth * phi
    shift = cc.shift
    mask = cc.mask
    kinds = cc.kinds
    offsets = cc.offsets
    srcs = cc.srcs
    weights = cc.weights
    root = v  # (v, 0) packs to v itself
    result = PackedExpansion(root=root, shift=shift)
    interior = result.interior
    candidates = result.candidates
    leaves = result.leaves
    edges = result.edges
    seen = {root}
    stack = [root]
    interior.append(root)
    count = 1
    while stack:
        p = stack.pop()
        u = p & mask
        w_base = p >> shift
        for i in range(offsets[u], offsets[u + 1]):
            src = srcs[i]
            w = w_base + weights[i]
            child = (w << shift) | src
            if child not in seen:
                height = labels[src] - phi * w + 1
                kind = kinds[src]
                if height > threshold:
                    if kind == KIND_PI:
                        result.blocked = True
                        return result
                    tier = 0  # interior
                elif kind == KIND_GATE and height > floor:
                    tier = 1  # candidate
                else:
                    tier = 2  # leaf
                count += 1
                if count > max_copies:
                    name = name_of(v) if name_of is not None else str(v)
                    raise ExpansionOverflow(name, max_copies)
                seen.add(child)
                if tier == 0:
                    interior.append(child)
                    stack.append(child)
                elif tier == 1:
                    candidates.append(child)
                    stack.append(child)
                else:
                    leaves.append(child)
            edges.append(child)
            edges.append(p)
    return result


class PackedCutArena:
    """Scratch arena for packed cut queries: one flow network, reused.

    ``flow`` selects the max-flow engine: ``"dinic"`` (the flat-array
    level-graph solver, the default) or ``"ek"`` (the Edmonds-Karp
    engine of :class:`repro.comb.maxflow.FlowNetwork`, retained for
    differential testing).  The copy-to-flow-node index map is a plain
    ``int -> int`` dict recycled across queries.
    """

    def __init__(self, flow: str = "dinic") -> None:
        self.net: "Union[DinicNetwork, FlowNetwork]"
        if flow == "dinic":
            self.net = DinicNetwork()
        elif flow == "ek":
            from repro.comb.maxflow import FlowNetwork

            self.net = FlowNetwork()
        else:
            raise ValueError(
                f"unknown flow engine {flow!r}; valid engines: dinic, ek"
            )
        self.flow = flow
        self._index: Dict[int, int] = {}
        # SAN007 hook (REPRO_SANITIZE=1), resolved once per arena like
        # the Dinic hooks; arena-less queries resolve it per call.
        self.frontier_san = frontier_sanitizer()

    def drain_counters(self) -> "tuple[int, int]":
        """Per-query ``(phases, arcs_advanced)`` of a Dinic backend."""
        if isinstance(self.net, DinicNetwork):
            return self.net.drain_counters()
        return (0, 0)


def frontier_sanitizer() -> Optional["FrontierSanitizer"]:
    """The armed SAN007 hook, or ``None`` (imported lazily: the
    analysis package imports this one)."""
    from repro.analysis.sanitize import frontier_sanitizer as armed

    return armed()


def frontier_cut(
    expansion: Union[PackedExpansion, PartialExpansion], max_cut: int
) -> Optional[List[Any]]:
    """The cut of an expansion that has no candidate copies.

    Returns the leaves sorted by ``(u, w)`` when there are at most
    ``max_cut`` of them, ``None`` otherwise — exactly what the bounded
    flow on the node-split network answers, without building it.  With
    no candidates, every leaf's parents are interior, so each leaf is
    its own unit path ``source -> leaf -> interior -> sink``: the max
    flow is the leaf count, and the residual graph reaches exactly the
    leaves' input halves, so the canonical cut is the leaf set.
    Accepts a packed or a tuple-copy expansion (the caller has already
    handled ``blocked``).
    """
    if len(expansion.leaves) > max_cut:
        return None
    if isinstance(expansion, PackedExpansion):
        mask = (1 << expansion.shift) - 1
        shift = expansion.shift
        return sorted(expansion.leaves, key=lambda p: (p & mask, p >> shift))
    return sorted(expansion.leaves)


def cut_on_packed(
    expansion: PackedExpansion,
    max_cut: int,
    arena: Optional[PackedCutArena] = None,
) -> Optional[List[int]]:
    """Bounded-flow cut query on a packed expansion.

    Returns the packed min-cut copies sorted by ``(u, w)`` — the same
    order :func:`repro.core.kcut.cut_on_expansion` returns tuple cuts
    in — or ``None`` when the expansion is blocked or every cut needs
    more than ``max_cut`` nodes.  ``arena`` recycles a caller-owned
    :class:`PackedCutArena`.  Candidate-free expansions are answered by
    :func:`frontier_cut` without a flow solve.
    """
    if expansion.blocked:
        return None
    if not expansion.candidates:
        cut = frontier_cut(expansion, max_cut)
        san = arena.frontier_san if arena is not None else frontier_sanitizer()
        if san is not None:
            san.check(expansion, max_cut, cut)
        return cut
    return flow_cut_packed(expansion, max_cut, arena)


def flow_cut_packed(
    expansion: PackedExpansion,
    max_cut: int,
    arena: Optional[PackedCutArena] = None,
) -> Optional[List[int]]:
    """:func:`cut_on_packed` by an actual flow solve, for any
    unblocked expansion (the SAN007 sanitizer re-solves frontier
    answers through it)."""
    candidates = expansion.candidates
    leaves = expansion.leaves
    if not leaves and not candidates:
        return []  # the cone closes on constant generators: zero inputs
    if arena is None:
        arena = PackedCutArena()
    net = arena.net
    net.reset()
    index = arena._index
    index.clear()
    source = net.add_node()
    sink = net.add_node()
    # Node-split construction, same shape as SplitNetwork: copy j gets
    # the consecutive pair (inp, out) = (2 + 2j, 3 + 2j); interior
    # copies get an uncuttable INF split edge and collapse into the
    # sink, leaves hang off the source.
    for p in expansion.interior:
        a = net.add_node()
        b = net.add_node()
        index[p] = a
        net.add_edge(a, b, INF)
        net.add_edge(a, sink, INF)
    for p in candidates:
        a = net.add_node()
        b = net.add_node()
        index[p] = a
        net.add_edge(a, b, 1)
    for p in leaves:
        a = net.add_node()
        b = net.add_node()
        index[p] = a
        net.add_edge(a, b, 1)
        net.add_edge(source, a, INF)
    edges = expansion.edges
    for i in range(0, len(edges), 2):
        # out half of the child -> inp half of the parent
        net.add_edge(index[edges[i]] + 1, index[edges[i + 1]], INF)
    if net.max_flow(source, sink, max_cut) > max_cut:
        return None
    reach = net.residual_reachable(source)
    mask = (1 << expansion.shift) - 1
    shift = expansion.shift
    cut = [
        p
        for p in candidates
        if index[p] in reach and index[p] + 1 not in reach
    ]
    cut.extend(
        p for p in leaves if index[p] in reach and index[p] + 1 not in reach
    )
    cut.sort(key=lambda p: (p & mask, p >> shift))
    return cut
