"""TurboSYN: FPGA synthesis with retiming and pipelining (the paper).

The complete algorithm of Figure 4:

1. run TurboMap to obtain an upper bound ``UB`` of the minimum MDR ratio;
2. binary search ``phi`` in ``[1, UB]``; each probe runs the label
   computation with **sequential functional decomposition** — when no
   K-feasible cut of height ``L(v)`` exists, wider min-cuts (up to
   ``Cmax = 15`` inputs) of decreasing height are Roth-Karp-decomposed
   into K-LUT trees whose root still meets the label
   (:mod:`repro.core.seqdecomp`) — and positive loop detection
   (:mod:`repro.core.labels`);
3. regenerate the mapping at the optimum, resynthesizing only the nodes
   that need it, and leave clock-period realization to pipelining +
   retiming (:mod:`repro.retime.pipeline`).

Compared to TurboMap the clock period drops (the paper reports 1.96x on
average) at some LUT-count cost, which the area stage
(:mod:`repro.core.area`, :mod:`repro.comb.pack`) partially recovers.
"""

from __future__ import annotations

from typing import Optional

from repro.core.driver import SeqMapResult, run_mapper
from repro.core.expanded import DEFAULT_MAX_COPIES
from repro.core.seqdecomp import DEFAULT_CMAX
from repro.core.turbomap import turbomap
from repro.netlist.graph import SeqCircuit
from repro.resilience.budget import Budget


def turbosyn(
    circuit: SeqCircuit,
    k: int = 5,
    cmax: int = DEFAULT_CMAX,
    pld: bool = True,
    extra_depth: int = 0,
    upper_bound: Optional[int] = None,
    name: Optional[str] = None,
    workers: int = 1,
    check: bool = True,
    budget: Optional[Budget] = None,
    max_copies: int = DEFAULT_MAX_COPIES,
    cache: Optional[object] = None,
) -> SeqMapResult:
    """Map ``circuit`` onto K-LUTs minimizing the MDR ratio with
    sequential functional decomposition.

    ``upper_bound`` defaults to a fresh TurboMap run's optimum, exactly as
    the paper's Figure 4 prescribes; pass a known value to skip that run.
    ``workers`` accepts only ``1`` (the phi search is sequential) and
    raises ``ValueError`` otherwise.  ``check`` verifies the final
    mapping against the paper's invariants (:mod:`repro.analysis`); the
    intermediate TurboMap bound run is never re-verified.
    ``budget`` is shared across the bound computation and the main
    search: its deadline covers both, and its resilience state (degraded
    marker, event trace) accumulates over the whole pipeline.
    ``max_copies`` is the partial-expansion safety bound; it applies to
    the TurboMap bound run too.

    ``cache`` (a persistent :class:`repro.cache.OutcomeCache`) warms
    both stages across processes: the bound run's probes answer under
    the TurboMap key (``resynthesize=False``), the main search under
    the TurboSYN key, and an exact full hit on the latter replays the
    verified result without searching (the bound run is then skipped
    along with the search).  Every fresh probe of either stage is
    written through as it completes, so a run killed mid-search and
    restarted against the same cache adopts every probe it finished —
    the crash checkpoint of :mod:`repro.serve`.  The bound run's label
    counters ride along as ``result.bound_stats``.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1 (sequential search), got {workers!r}")
    if budget is not None:
        budget.start()  # the deadline clock covers the TurboMap bound too
    if upper_bound is None and cache is not None and check:
        # An exact cached final for this key replays without searching,
        # making the bound run pointless work — probe the cache first.
        from repro.cache.store import cache_key as build_cache_key

        ckey = build_cache_key(
            circuit, k, True, cmax=cmax, pld=pld, extra_depth=extra_depth,
            io_constrained=False, max_copies=max_copies,
        )
        final = cache.get_final(ckey)
        if final is not None:
            # Any feasible period works as the search bound, and the
            # recorded optimum is one (run_mapper still re-verifies the
            # replayed result before trusting it).
            upper_bound = int(final["phi"])
    bound_stats = None
    if upper_bound is None:
        bound = turbomap(
            circuit, k, pld=pld, extra_depth=extra_depth,
            check=False, budget=budget, max_copies=max_copies, cache=cache,
        )
        upper_bound = bound.phi
        bound_stats = bound.total_stats
        # Only the phi and the counters outlive the bound run: its
        # mapped network and label vectors would otherwise stay live
        # through the whole main stage.
        del bound
    result = run_mapper(
        circuit,
        k,
        algorithm="turbosyn",
        resynthesize=True,
        upper_bound=upper_bound,
        cmax=cmax,
        pld=pld,
        extra_depth=extra_depth,
        name=name or f"{circuit.name}_turbosyn",
        check=check,
        budget=budget,
        max_copies=max_copies,
        cache=cache,
    )
    result.bound_stats = bound_stats
    return result
