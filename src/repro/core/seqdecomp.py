"""Sequential functional decomposition (TurboSYN's label-update extension).

When TurboMap's label update finds no K-feasible cut of height ``L(v)``,
TurboSYN does not give up on the label: following the paper's
``LabelUpdateSYN`` (Figure 3), it computes a *sequence of min-cuts*
``(X_h, X-bar_h)`` of heights ``L(v) - h`` for ``h = 0, 1, ...`` — wider
than ``K`` but bounded by ``Cmax = 15`` — composes the exact sequential
cone function ``f(u1^w1, ..., um^wm)`` of each cut, and tries to realize
it as a tree of K-LUTs whose root is still ready by ``L(v)``.  Cut inputs
are sorted by increasing ``l(u) - phi*w`` (the paper's Section 3.3), which
:func:`repro.boolfn.decompose.synthesize_lut_tree` does internally: the
earliest-arriving inputs are folded through Roth-Karp encoder LUTs.

A success means ``l(v) = L(v)`` is achievable with resynthesis; the
recorded cut + LUT tree is replayed by :mod:`repro.core.mapping`.

Within one label run the same decomposition question recurs often (a
node is re-examined every time a fanin label rises), so the caller may
pass a :data:`ResynMemo` of synthesis answers keyed by the exact
``(n, bits, arrivals, k, deadline)``.  The answer is a pure function of
its key, so a memoized answer is identical to a recomputed one.  The
key is exact rather than NPN-canonical because
:func:`~repro.boolfn.decompose.synthesize_lut_tree` breaks arrival ties
by variable index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.boolfn.decompose import LutTree, synthesize_lut_tree
from repro.core.expanded import Copy, PartialExpansion, sequential_cone_function
from repro.core.kcut import cut_on_expansion, find_height_cut
from repro.netlist.graph import SeqCircuit

#: The paper's cut-size bound for resynthesis ("set to be 15 in TurboSYN").
DEFAULT_CMAX = 15

#: Safety bound on how far below ``L(v)`` the min-cut sequence descends.
MAX_DESCENT = 64

#: Per-run memo of :func:`find_seq_resynthesis`: the exact
#: ``(n, bits, arrivals, k, deadline)`` of a synthesis to its LUT tree or
#: ``None``.  Owned by one label run (:func:`repro.core.driver.make_resyn_hook`).
ResynMemo = Dict[tuple, Optional[LutTree]]

#: Entries a :data:`ResynMemo` holds before it starts over.  Repeats come
#: in bursts (on the quick suite 88% of hits recur within 64 lookups and
#: 98.5% within 512), so a small bound keeps nearly every hit and caps
#: the memory a long label run can pin.
MEMO_ENTRIES = 512

_MISS = object()


@dataclass(frozen=True)
class SeqResyn:
    """A recorded sequential resynthesis for one node."""

    cut: Tuple[Copy, ...]
    tree: LutTree


def find_seq_resynthesis(
    circuit: SeqCircuit,
    v: int,
    phi: int,
    labels: List[int],
    deadline: int,
    k: int,
    cmax: int = DEFAULT_CMAX,
    extra_depth: int = 0,
    first_expansion: Optional[PartialExpansion] = None,
    max_copies: Optional[int] = None,
    memo: Optional[ResynMemo] = None,
) -> Optional[SeqResyn]:
    """Try to realize label ``deadline`` for ``v`` through decomposition.

    Returns the cut and LUT tree on success, ``None`` when no cut of at
    most ``cmax`` inputs decomposes in time.

    ``first_expansion`` is an optional pre-built partial expansion of
    ``E_v`` at height ``deadline`` (under the *current* labels): the
    label solver hands over the expansion its just-failed K-cut check
    built — from either kernel; :func:`cut_on_expansion` dispatches on
    the expansion type — so the ``h = 0`` min-cut query skips the
    identical re-expansion (the expansion depends only on ``v``, the
    threshold and the label heights — not on the cut-size bound).

    ``max_copies`` bounds both the deeper re-expansions and the cone
    evaluations (``None``: the module default).  ``memo`` (a
    :data:`ResynMemo`) answers repeated syntheses from earlier calls.
    """
    cone_kwargs = {} if max_copies is None else {"max_copies": max_copies}

    def height_of(u: int, w: int) -> int:
        return labels[u] - phi * w + 1

    if memo is None:
        memo = {}

    def synthesize(cut: List[Copy], arrival: List[int]) -> Optional[LutTree]:
        func = sequential_cone_function(circuit, v, cut, **cone_kwargs)
        key = (func.n, func.bits, tuple(arrival), k, deadline)
        tree = memo.get(key, _MISS)
        if tree is _MISS:
            tree = synthesize_lut_tree(func, arrival, k, deadline)
            if len(memo) >= MEMO_ENTRIES:
                memo.clear()
            memo[key] = tree
        return tree

    previous_cut: Optional[Tuple[Copy, ...]] = None
    for h in range(MAX_DESCENT):
        threshold = deadline - h
        if h == 0 and first_expansion is not None:
            cut = cut_on_expansion(first_expansion, cmax)
        else:
            cut = find_height_cut(
                circuit, v, phi, height_of, threshold, max_cut=cmax,
                extra_depth=extra_depth, max_copies=max_copies,
            )
        if cut is None:
            return None  # blocked or wider than Cmax: deeper only grows
        cut_t = tuple(cut)
        if cut_t == previous_cut:
            continue  # same cut as the previous height: already failed
        previous_cut = cut_t
        if not cut:
            # Constant cone: a zero-input LUT always meets any deadline >= 1.
            tree = synthesize([], [])
            return SeqResyn((), tree) if tree is not None else None
        arrival = [labels[u] - phi * w for (u, w) in cut]
        tree = synthesize(cut, arrival)
        if tree is not None:
            return SeqResyn(cut_t, tree)
    return None
