"""Partial expanded circuits and cut queries on packed copies.

Copies of the expanded circuit ``E_v`` are packed integers
``(w << shift) | u`` (:mod:`repro.kernel.csr`), heights are computed
inline from the label list (no per-copy callable dispatch), and the
node-split flow network is built straight into a flat-array max-flow
solver.  Resynthesis, mapping and area recovery share this expansion,
and so does the label solver at ``extra_depth >= 1``; at the paper's
``extra_depth=0`` the label solver walks the frontier itself
(:mod:`repro.core.labels`) and keeps only its leaves, which it hands to
the resynthesis hook as a :class:`Frontier`.  Cuts come back as
unordered packed lists: the label solver only height-checks them, and
:mod:`repro.core.kcut` sorts and decodes them to ``(u, w)`` tuples for
the other three.

Because the source side of the residual min-cut is unique for a given
network, independent of the max-flow solver, the cut sets are those of
the definition.  ``tests/kernel`` asserts this differentially against
the tuple-copy expansion and Edmonds-Karp oracles in ``tests/helpers.py``.

An expansion without candidate copies — every query at the paper's
``extra_depth=0`` — needs no flow network at all: its cut is read off
the frontier (:func:`frontier_cut`), for expansions and frontiers alike.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.expanded import DEFAULT_MAX_COPIES, ExpansionOverflow
from repro.kernel.csr import KIND_GATE, KIND_PI, CompiledCircuit
from repro.kernel.dinic import INF, DinicNetwork

if TYPE_CHECKING:
    from repro.analysis.sanitize import FrontierSanitizer


class PackedExpansion:
    """The partial expanded circuit of one height query, packed.

    Copies are packed ints under the recorded ``shift``; ``root`` is
    the root copy ``v^0`` (which packs to ``v``).  One instance is built
    per cut query, so the class is a plain ``__slots__`` record.

    Attributes
    ----------
    interior:
        Copies that *must* be inside the LUT cluster (height above the
        threshold); includes the root.
    candidates:
        Gate copies that may be cut **or** absorbed into the cluster
        (height in ``(floor, threshold]``); empty in the paper's
        ``extra_depth=0`` construction.
    leaves:
        Copies at or below the floor (and PI copies at or below the
        threshold): cut candidates fed straight from the flow source and
        not expanded further.
    edges:
        A flat list of alternating ``child, parent`` copies (pairs at
        even offsets) oriented toward the root: for circuit edge
        ``e(x, u)`` and expanded copy ``u^w`` it holds ``x^(w + w(e))``
        then ``u^w``, once per *distinct* pin (the compiled CSR dedups
        repeated pins, so the flow network never carries parallel unit
        edges).
    blocked:
        True when a PI copy sits above the threshold: no cut at this
        height exists (a PI cannot be replicated into the cluster).
    """

    __slots__ = (
        "root", "shift", "interior", "candidates", "leaves", "edges", "blocked",
    )

    def __init__(self, root: int, shift: int) -> None:
        self.root = root
        self.shift = shift
        self.interior: List[int] = []
        self.candidates: List[int] = []
        self.leaves: List[int] = []
        self.edges: List[int] = []
        self.blocked = False

    def unpack_copies(self, packed: Sequence[int]) -> List[Tuple[int, int]]:
        """Decode a packed copy list to ``(u, w)`` tuples."""
        return _unpack(packed, self.shift)


def _unpack(packed: Sequence[int], shift: int) -> List[Tuple[int, int]]:
    mask = (1 << shift) - 1
    return [(p & mask, p >> shift) for p in packed]


class Frontier:
    """The leaves of a depth-0 partial expansion, without the rest of it.

    At ``extra_depth=0`` a cut query reads nothing of ``E_v`` but its
    leaves (:func:`frontier_cut`), so the label solver keeps only those
    and hands them to the resynthesis hook in this form;
    :func:`cut_on_packed` answers it like a candidate-free
    :class:`PackedExpansion`.  The query — root, period, the live label
    list and the threshold — comes along so that :meth:`expand` can
    rebuild the whole expansion for the SAN007 re-solve.  A frontier
    describes ``E_v`` only while the labels are those it was read
    under.
    """

    __slots__ = (
        "cc", "root", "shift", "phi", "labels", "threshold", "leaves",
        "max_copies",
    )
    blocked = False
    candidates: Tuple[int, ...] = ()

    def __init__(
        self,
        cc: CompiledCircuit,
        root: int,
        phi: int,
        labels: Sequence[int],
        threshold: int,
        leaves: Sequence[int],
        max_copies: int = DEFAULT_MAX_COPIES,
    ) -> None:
        self.cc = cc
        self.root = root
        self.shift = cc.shift
        self.phi = phi
        self.labels = labels
        self.threshold = threshold
        self.leaves = leaves
        self.max_copies = max_copies

    def unpack_copies(self, packed: Sequence[int]) -> List[Tuple[int, int]]:
        """Decode a packed copy list to ``(u, w)`` tuples."""
        return _unpack(packed, self.shift)

    def expand(self) -> PackedExpansion:
        """The full partial expansion of the same query."""
        return expand_partial_packed(
            self.cc, self.root, self.phi, self.labels, self.threshold,
            max_copies=self.max_copies,
        )


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

    Copy heights are ``labels[u] - phi*w + 1``.  Copies above
    ``threshold`` are interior; gate copies with height in
    ``(threshold - extra_depth*phi, threshold]`` are expandable
    candidates; everything at or below that floor (and every PI copy at
    or below the threshold) is a leaf.  ``name_of`` resolves the root's
    display name for the :class:`~repro.core.expanded.ExpansionOverflow`
    raised past ``max_copies`` copies.
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

    The network is the flat-array level-graph solver
    :class:`~repro.kernel.dinic.DinicNetwork`.  The copy-to-flow-node
    index map is a plain ``int -> int`` dict recycled across queries.
    One arena serves a whole label run (its resynthesis hook included)
    or mapping pass, so the SAN007 hook is resolved once for all of
    their cut queries.
    """

    def __init__(self) -> None:
        self.net = DinicNetwork()
        self._index: Dict[int, int] = {}
        # SAN007 hook (REPRO_SANITIZE=1), resolved once per arena like
        # the Dinic hooks; arena-less queries resolve it per call.
        self.frontier_san = frontier_sanitizer()

    def drain_counters(self) -> "tuple[int, int]":
        """``(phases, arcs_advanced)`` of the last flow solve (the network
        zeroes them on every reset)."""
        return self.net.drain_counters()


def frontier_sanitizer() -> Optional["FrontierSanitizer"]:
    """The armed SAN007 hook, or ``None`` (imported lazily: the
    analysis package imports this one)."""
    from repro.analysis.sanitize import frontier_sanitizer as armed

    return armed()


def frontier_cut(
    leaves: Sequence[int], max_cut: int
) -> Optional[Sequence[int]]:
    """The cut of an expansion that has no candidate copies.

    Returns ``leaves`` itself (callers must not mutate it) when there
    are at most ``max_cut`` of them, ``None`` otherwise — exactly what
    the bounded flow on the node-split network answers, without
    building it.  With no candidates, every leaf's parents are
    interior, so each leaf is its own unit path ``source -> leaf ->
    interior -> sink``: the max flow is the leaf count, and the
    residual graph reaches exactly the leaves' input halves, so the
    canonical cut is the leaf set.  The caller has already handled
    ``blocked``.  Every depth-0 answer comes from here, the label
    solver's included, so the sanitizer's selftest seeds its
    off-by-one bound here.
    """
    if len(leaves) > max_cut:
        return None
    return leaves


def cut_on_packed(
    expansion: Union[PackedExpansion, Frontier],
    max_cut: int,
    arena: Optional[PackedCutArena] = None,
) -> Optional[Sequence[int]]:
    """Bounded-flow cut query on a packed expansion or a frontier.

    Returns the packed min-cut copies in no particular order (a set:
    :func:`repro.core.kcut.cut_on_expansion` sorts and decodes them for
    mapping and resynthesis, the label solver only height-checks them),
    or ``None`` when the expansion is blocked or every cut needs more
    than ``max_cut`` nodes.  ``arena`` recycles a caller-owned
    :class:`PackedCutArena` and its SAN007 hook; without one the hook is
    resolved per call.  Candidate-free expansions and frontiers are
    answered by :func:`frontier_cut` without a flow solve.
    """
    if expansion.blocked:
        return None
    if not expansion.candidates:
        cut = frontier_cut(expansion.leaves, max_cut)
        san = arena.frontier_san if arena is not None else frontier_sanitizer()
        if san is not None:
            san.check(expansion, max_cut, cut)
        return cut
    assert isinstance(expansion, PackedExpansion)
    return flow_cut_packed(expansion, max_cut, arena)


def flow_cut_packed(
    expansion: PackedExpansion,
    max_cut: int,
    arena: Optional[PackedCutArena] = None,
) -> Optional[List[int]]:
    """:func:`cut_on_packed` by an actual flow solve, for any
    unblocked expansion (the SAN007 sanitizer re-solves frontier
    answers through it); the cut comes back unordered."""
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
    cut = [
        p
        for p in candidates
        if index[p] in reach and index[p] + 1 not in reach
    ]
    cut.extend(
        p for p in leaves if index[p] in reach and index[p] + 1 not in reach
    )
    return cut
