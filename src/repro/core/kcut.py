"""Height-constrained K-feasible cuts on expanded circuits.

The TurboMap label update [11] asks: *does ``E_v`` have a K-feasible cut
of height at most ``L``?*  Following the paper, the partial expansion
(copies above the height threshold collapsed into the sink, copies at or
below it as unit-capacity candidates) turns the question into a bounded
max-flow: a cut of at most ``K`` nodes exists iff the max flow is at most
``K``, and the residual min-cut *is* the LUT input set.

The same machinery with the looser bound ``Cmax`` produces the wider
min-cuts that TurboSYN's sequential functional decomposition resynthesizes
(:mod:`repro.core.seqdecomp`).

The returned min-cut is the max-volume one (closest to the source), which
makes each LUT swallow as much logic as possible — the low-cost choice
the paper uses for area.

In the paper's ``extra_depth=0`` construction the expansion has no
candidate copies, and the flow answer is known without solving it: the
leaves, when there are at most ``K`` of them
(:func:`repro.kernel.expand.frontier_cut`).  A flow network is only
built when deeper expansion exposes candidates.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.comb.maxflow import SplitNetwork
from repro.core.expanded import Copy, PartialExpansion, expand_partial
from repro.kernel.expand import (
    PackedExpansion,
    cut_on_packed,
    frontier_cut,
    frontier_sanitizer,
)
from repro.netlist.graph import SeqCircuit


def find_height_cut(
    circuit: SeqCircuit,
    v: int,
    phi: int,
    height_of: Callable[[int, int], int],
    threshold: int,
    max_cut: int,
    extra_depth: int = 0,
    max_copies: Optional[int] = None,
) -> Optional[List[Copy]]:
    """A cut of ``E_v`` with height ``<= threshold`` and at most
    ``max_cut`` nodes, or ``None``.

    ``height_of(u, w)`` must return ``l(u) - phi*w + 1`` under the current
    label lower bounds.  The expansion itself certifies height feasibility
    (every candidate or leaf copy is at or below the threshold); the flow
    bounds the cut size.  ``extra_depth`` expands through candidate copies
    below the threshold (see :mod:`repro.core.expanded`).
    """
    kwargs = {} if max_copies is None else {"max_copies": max_copies}
    expansion = expand_partial(
        circuit, v, phi, height_of, threshold, extra_depth=extra_depth,
        **kwargs,
    )
    return cut_on_expansion(expansion, max_cut)


def cut_on_expansion(
    expansion: Union[PartialExpansion, PackedExpansion],
    max_cut: int,
) -> Optional[List[Copy]]:
    """Answer the bounded cut query on a prepared partial expansion.

    A candidate-free expansion is answered from its frontier
    (:func:`~repro.kernel.expand.frontier_cut`, checked by SAN007 when
    the sanitizer is armed); otherwise the bounded flow runs.

    Accepts either copy representation: a
    :class:`~repro.kernel.expand.PackedExpansion` (the label solver's)
    is routed to :func:`~repro.kernel.expand.cut_on_packed` and its cut
    decoded back to ``(u, w)`` tuples, so callers downstream of the
    label solver (sequential decomposition, mapping replay) see one cut
    type.
    """
    if isinstance(expansion, PackedExpansion):
        packed = cut_on_packed(expansion, max_cut)
        if packed is None:
            return None
        return expansion.unpack_copies(packed)
    if expansion.blocked:
        return None
    assert len(expansion.edges) == len(set(expansion.edges)), (
        "partial expansion carries duplicate (child, parent) edges"
    )
    if not expansion.candidates:
        cut = frontier_cut(expansion, max_cut)
        san = frontier_sanitizer()
        if san is not None:
            san.check(expansion, max_cut, cut)
        return cut
    return flow_cut(expansion, max_cut)


def flow_cut(
    expansion: PartialExpansion, max_cut: int
) -> Optional[List[Copy]]:
    """:func:`cut_on_expansion` by an actual flow solve, for any
    unblocked tuple-copy expansion (the SAN007 sanitizer re-solves
    frontier answers through it)."""
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
