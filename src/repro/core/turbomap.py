"""TurboMap [11]: optimal LUT mapping with retiming, no resynthesis.

The baseline of the paper's Table 1 and the producer of TurboSYN's upper
bound: binary search over the target clock period with the iterative
label computation of :mod:`repro.core.labels` (K-feasible cuts on
expanded circuits, SCC-topological processing, positive loop detection).

Under retiming + pipelining, the resulting network's clock period equals
the minimum MDR ratio over all *structural* mappings of the subject graph;
TurboSYN (:mod:`repro.core.turbosyn`) goes below it with Boolean
resynthesis.
"""

from __future__ import annotations

from typing import Optional

from repro.core.driver import SeqMapResult, run_mapper
from repro.core.expanded import DEFAULT_MAX_COPIES
from repro.netlist.graph import SeqCircuit
from repro.resilience.budget import Budget


def turbomap(
    circuit: SeqCircuit,
    k: int = 5,
    pld: bool = True,
    extra_depth: int = 0,
    upper_bound: Optional[int] = None,
    pipelining: bool = True,
    name: Optional[str] = None,
    workers: int = 1,
    check: bool = True,
    budget: Optional[Budget] = None,
    max_copies: int = DEFAULT_MAX_COPIES,
    cache: Optional[object] = None,
) -> SeqMapResult:
    """Map ``circuit`` onto K-LUTs minimizing the MDR ratio (no resynthesis).

    Parameters
    ----------
    circuit:
        A K-bounded sequential circuit (retiming graph).
    k:
        LUT input count (the paper uses 5).
    pld:
        Use predecessor-graph positive loop detection (paper Section 4);
        ``False`` falls back to the conservative ``n^2`` iteration bound
        of [21] — kept for the speedup benchmark.
    extra_depth:
        Expanded-circuit search depth below the height threshold; 0 is
        the paper's partial flow network.
    upper_bound:
        Optional known bound on the optimum (defaults to the MDR ratio of
        the unmapped network, i.e. the identity mapping).
    pipelining:
        ``True`` is the paper's setting: I/O paths are pipelined away and
        only loops constrain the clock period.  ``False`` is the original
        ICCD'96 TurboMap objective (retiming only): primary outputs must
        meet the period too, so the optimum can be larger — the paper's
        Section 2 argues exactly this difference.
    workers:
        Only ``1`` is accepted (the phi search is sequential); any other
        value raises ``ValueError``.
    check:
        Verify the produced mapping against the paper's invariants and
        attach a certificate (:mod:`repro.analysis`); ``False`` opts out.
    budget:
        Wall-clock :class:`~repro.resilience.budget.Budget` for the phi
        search; on expiry the result is the best-known feasible period,
        marked ``degraded``.
    max_copies:
        Per-query safety bound on the partial-expansion size
        (:class:`repro.core.expanded.ExpansionOverflow` on excess).
    cache:
        A persistent :class:`repro.cache.OutcomeCache`: probe verdicts
        are adopted/written through across processes and an exact
        full hit replays the result in O(verify) (see
        :func:`repro.core.driver.run_mapper`).
    """
    if workers != 1:
        raise ValueError(f"workers must be 1 (sequential search), got {workers!r}")
    return run_mapper(
        circuit,
        k,
        algorithm="turbomap",
        resynthesize=False,
        upper_bound=upper_bound,
        pld=pld,
        extra_depth=extra_depth,
        io_constrained=not pipelining,
        name=name or f"{circuit.name}_turbomap",
        check=check,
        budget=budget,
        max_copies=max_copies,
        cache=cache,
    )
