"""Positive loop detection through predecessor (justification) graphs.

The paper's second contribution (Section 4): when the target clock period
``phi`` is infeasible, some SCC contains a *positive loop* — a cycle with
``d(C) > phi * w(C)`` in every possible mapping — and the label lower
bounds of its nodes grow forever.  The conservative stopping rule of [21]
runs ``n^2`` update rounds before giving up; TurboSYN instead watches the
**predecessor graph**: after each round, node ``v`` (with ``l(v) > 1``)
is *justified* by the fanins ``u`` with ``l(u) - phi*w(e) + 1 >= l(v)``.
A label that is transitively justified from outside the SCC (a PI or an
already-converged upstream node) is *grounded*; once no label in the SCC
is grounded, the labels feed only on themselves and the SCC is caught in
a positive loop.  Combined with the ``6n``-round bound of the paper's
Theorem 2 this detects infeasibility in linear instead of quadratic
rounds — the 10-50x label-computation speedup reported in the paper and
measured by ``benchmarks/bench_pld.py``.

The solver only asks whether the grounded set is empty, and that needs
no set at all.  The grounded set grows from *seeds* — members with
``l(v) <= 1`` (trivially supported) or with a justifying fanin outside
the SCC — by following in-SCC justification edges forward.  Propagation
only adds members to a non-empty seed set, and with no seed nothing is
ever added, so the set is empty exactly when there is no seed.
:func:`has_seed` therefore scans the members' CSR fanins and stops at the
first seed.  ``tests/helpers.py`` keeps the full grounded-set
construction as the label oracle's PLD, and a differential test holds the
two to each other.

The solver applies a small persistence window
(:attr:`repro.core.labels.LabelSolver.PLD_PATIENCE`) before trusting an
isolation verdict: a zero-gain critical cycle can look isolated on the
single round where its labels settle, while a genuine positive loop stays
isolated on every subsequent round.
"""

from __future__ import annotations

from typing import Sequence

from repro.kernel.csr import CompiledCircuit


def has_seed(
    cc: CompiledCircuit,
    scc_of: Sequence[int],
    labels: Sequence[int],
    phi: int,
    members: Sequence[int],
    sid: int,
) -> bool:
    """True when SCC ``sid`` has a grounded member (the PLD signal).

    ``members`` are the SCC's gates and ``scc_of`` maps every node to
    its SCC index (:class:`repro.netlist.graph.SccSchedule`).  A seed is
    a member with ``l(v) <= 1`` or a fanin ``u`` outside the SCC with
    ``l(u) - phi*w + 1 >= l(v)``; ``False`` means the SCC is "totally
    isolated from the PIs" in the predecessor graph.
    """
    offsets = cc.offsets
    srcs = cc.srcs
    weights = cc.weights
    for v in members:
        lv = labels[v]
        if lv <= 1:
            return True
        for i in range(offsets[v], offsets[v + 1]):
            u = srcs[i]
            if scc_of[u] != sid and labels[u] - phi * weights[i] + 1 >= lv:
                return True
    return False
