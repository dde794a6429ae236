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

Both entry points run on packed copies (:mod:`repro.kernel.expand`) and
hand back the cut decoded to ``(u, w)`` tuples sorted by ``(u, w)``, the
one order mapping and resynthesis read (the label solver keeps its cuts
packed and unordered).  A caller making many queries passes one
:class:`~repro.kernel.expand.PackedCutArena` for all of them.  In the
paper's ``extra_depth=0`` construction the expansion has no candidate
copies, and the flow answer is known without solving it: the leaves,
when there are at most ``K`` of them
(:func:`repro.kernel.expand.frontier_cut`).  A flow network is only
built when deeper expansion exposes candidates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.core.expanded import DEFAULT_MAX_COPIES, Copy
from repro.kernel.expand import (
    Frontier,
    PackedCutArena,
    PackedExpansion,
    cut_on_packed,
    expand_partial_packed,
)
from repro.netlist.graph import SeqCircuit


def find_height_cut(
    circuit: SeqCircuit,
    v: int,
    phi: int,
    labels: Sequence[int],
    threshold: int,
    max_cut: int,
    extra_depth: int = 0,
    max_copies: int = DEFAULT_MAX_COPIES,
    arena: Optional[PackedCutArena] = None,
) -> Optional[List[Copy]]:
    """A cut of ``E_v`` with height ``<= threshold`` and at most
    ``max_cut`` nodes, or ``None``.

    Copy heights are ``labels[u] - phi*w + 1`` under the given label
    lower bounds.  The expansion itself certifies height feasibility
    (every candidate or leaf copy is at or below the threshold); the flow
    bounds the cut size.  ``extra_depth`` expands through candidate copies
    below the threshold (see :mod:`repro.core.expanded`).  ``arena`` is
    the caller's cut arena (see :func:`cut_on_expansion`).
    """
    expansion = expand_partial_packed(
        circuit.compiled(), v, phi, labels, threshold,
        extra_depth=extra_depth, max_copies=max_copies,
        name_of=circuit.name_of,
    )
    return cut_on_expansion(expansion, max_cut, arena)


def cut_on_expansion(
    expansion: Union[PackedExpansion, Frontier],
    max_cut: int,
    arena: Optional[PackedCutArena] = None,
) -> Optional[List[Copy]]:
    """Answer the bounded cut query on a prepared partial expansion, or
    on the depth-0 frontier the label solver kept of one.

    :func:`~repro.kernel.expand.cut_on_packed` with the cut sorted and
    decoded to ``(u, w)`` tuples, so callers downstream of the label
    solver (sequential decomposition, mapping replay) see one cut type
    in one order.  ``arena`` recycles the caller's flow network and its
    resolved SAN007 hook across queries.
    """
    packed = cut_on_packed(expansion, max_cut, arena)
    return None if packed is None else sorted(expansion.unpack_copies(packed))
