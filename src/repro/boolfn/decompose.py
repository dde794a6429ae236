"""Roth-Karp disjoint functional decomposition and LUT-tree synthesis.

This module implements the Boolean-resynthesis engine that powers both
FlowSYN's combinational decomposition [5] and TurboSYN's *sequential*
functional decomposition: given a cone function ``f`` whose inputs become
available at different (integer) arrival times, realize ``f`` as a small
network of K-input LUTs whose root output is ready no later than a given
deadline.

Two layers:

* :func:`disjoint_decompose` — one classical Roth-Karp step.  For a bound
  set ``B`` it computes the column multiplicity ``mu`` of the chart, and if
  ``mu`` fits in ``t = ceil(log2(mu)) < |B|`` code bits, produces encoder
  functions ``alpha_1..alpha_t`` over ``B`` and the image function
  ``g(alpha codes, free)`` with ``f == g(alpha(B), free)`` exactly.

* :func:`synthesize_lut_tree` — the scheduling loop used inside the label
  computation.  Inputs are sorted by increasing arrival (the paper sorts by
  ``l(u_i) - phi * w_i``); the earliest inputs are grouped into bound sets
  and collapsed through encoders until the residual image fits in a single
  K-LUT, respecting per-input arrival times and the root deadline.

Every produced structure is exact: ``LutTree.to_truthtable`` recomposes the
original function bit-for-bit (property-tested in
``tests/boolfn/test_decompose.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.boolfn.truthtable import TruthTable

#: Safety valve: maximum number of column-multiplicity evaluations a single
#: ``synthesize_lut_tree`` call may spend before giving up.
MAX_ATTEMPTS = 96


@dataclass(frozen=True)
class Decomposition:
    """One Roth-Karp step ``f(B, F) = image(alpha_1(B)..alpha_t(B), F)``.

    Attributes
    ----------
    bound:
        Indices (into ``f``'s variables) of the bound set ``B``.
    free:
        Indices of the free set ``F`` (ascending).
    alphas:
        Encoder functions, each over ``len(bound)`` variables ordered as in
        ``bound``.
    image:
        Image function ``g`` over ``len(alphas) + len(free)`` variables:
        code bits first (alpha ``j`` is variable ``j``), then the free
        variables in ``free`` order.
    """

    bound: Tuple[int, ...]
    free: Tuple[int, ...]
    alphas: Tuple[TruthTable, ...]
    image: TruthTable

    def recompose(self, n: int) -> TruthTable:
        """Rebuild the original function over ``n`` variables (for checks)."""
        t = len(self.alphas)
        # Lift alphas and image back to n-variable space and substitute.
        g = self.image.extend(
            n + t, list(range(n, n + t)) + [f for f in self.free]
        )
        for j, alpha in enumerate(self.alphas):
            lifted = alpha.extend(n + t, list(self.bound))
            g = g.compose(n + j, lifted)
        # Drop the now-unused code variables.
        for j in reversed(range(t)):
            g = g.remove_var(n + j)
        return g


def disjoint_decompose(
    f: TruthTable, bound: Sequence[int]
) -> Optional[Decomposition]:
    """One disjoint Roth-Karp decomposition step, or ``None`` if no gain.

    Returns ``None`` when the column multiplicity needs ``t >= len(bound)``
    code bits (the step would not reduce the support of the image).
    """
    bound = tuple(bound)
    free = tuple(i for i in range(f.n) if i not in bound)
    cols = f.columns(bound)
    code_of: Dict[int, int] = {}
    codes: List[int] = []
    for col in cols:
        if col not in code_of:
            code_of[col] = len(code_of)
        codes.append(code_of[col])
    mu = len(code_of)
    t = max(1, (mu - 1).bit_length())
    if t >= len(bound):
        return None

    b = len(bound)
    alphas = []
    for j in range(t):
        bits = 0
        for assignment, code in enumerate(codes):
            if (code >> j) & 1:
                bits |= 1 << assignment
        alphas.append(TruthTable(b, bits))

    # Image: variables are [code_0..code_{t-1}, free...].  For unused codes
    # the image value is a don't-care; reuse column 0 so the table stays
    # completely specified.
    column_of_code: List[int] = [0] * (1 << t)
    for col, code in code_of.items():
        column_of_code[code] = col
    nf = len(free)
    # Stacking the columns gives the image with the free variables low
    # (row index a + (code << nf)); one permutation moves the code
    # variables below them.
    chunk = 1 << nf
    stacked = 0
    for code, col in enumerate(column_of_code):
        stacked |= col << (code * chunk)
    image = TruthTable(t + nf, stacked).permute(
        [nf + j for j in range(t)] + list(range(nf))
    )
    return Decomposition(bound, free, tuple(alphas), image)


# ----------------------------------------------------------------------
# LUT trees with arrival times
# ----------------------------------------------------------------------
@dataclass
class Lut:
    """One LUT of a :class:`LutTree`.

    ``inputs`` are references: non-negative integers index the tree's
    external leaves, negative integers ``-1-j`` reference the output of the
    tree's LUT ``j``.
    """

    func: TruthTable
    inputs: Tuple[int, ...]


@dataclass
class LutTree:
    """A DAG of K-LUTs realizing one function of the external leaves.

    ``luts`` is in topological order (a LUT only references earlier LUTs);
    the last LUT is the root.  ``num_leaves`` is the arity of the realized
    function.
    """

    num_leaves: int
    luts: List[Lut] = field(default_factory=list)

    @property
    def root(self) -> int:
        return len(self.luts) - 1

    def ready_times(self, arrival: Sequence[int]) -> List[int]:
        """Output ready time of every LUT (input arrival + 1 per level)."""
        if len(arrival) != self.num_leaves:
            raise ValueError("arrival vector length mismatch")
        ready: List[int] = []
        for lut in self.luts:
            worst = None
            for ref in lut.inputs:
                t = arrival[ref] if ref >= 0 else ready[-1 - ref]
                worst = t if worst is None else max(worst, t)
            ready.append((worst if worst is not None else 0) + 1)
        return ready

    def root_ready(self, arrival: Sequence[int]) -> int:
        return self.ready_times(arrival)[self.root]

    def depth(self) -> int:
        """LUT levels from any leaf to the root."""
        return self.root_ready([0] * self.num_leaves)

    def max_fanin(self) -> int:
        return max((len(l.inputs) for l in self.luts), default=0)

    def to_truthtable(self) -> TruthTable:
        """Recompose the realized function over the external leaves."""
        n = self.num_leaves
        values: List[TruthTable] = []
        leaves = [TruthTable.var(i, n) for i in range(n)]
        for lut in self.luts:
            args = [
                leaves[ref] if ref >= 0 else values[-1 - ref] for ref in lut.inputs
            ]
            values.append(_apply(lut.func, args, n))
        return values[self.root]


def _apply(func: TruthTable, args: List[TruthTable], n: int) -> TruthTable:
    """Compose ``func`` over argument functions, all over ``n`` variables."""
    if len(args) != func.n:
        raise ValueError("argument count mismatch")
    result = func.extend(n + func.n, list(range(n, n + func.n)))
    for j, arg in enumerate(args):
        lifted = arg.extend(n + func.n, list(range(n)))
        result = result.compose(n + j, lifted)
    for j in reversed(range(func.n)):
        result = result.remove_var(n + j)
    return result


def synthesize_lut_tree(
    f: TruthTable,
    arrival: Sequence[int],
    k: int,
    deadline: int,
) -> Optional[LutTree]:
    """Realize ``f`` as K-LUTs meeting a root deadline, or ``None``.

    Parameters
    ----------
    f:
        The cone function; variable ``i`` corresponds to external leaf ``i``.
    arrival:
        Integer ready time of each leaf (TurboSYN passes
        ``l(u_i) - phi * w_i``; values may be negative).
    k:
        LUT input bound.
    deadline:
        Latest allowed root ready time (TurboSYN passes the tentative label
        ``L(v)``); each LUT level adds one unit.

    The strategy follows FlowSYN/TurboSYN: leaves are sorted by increasing
    arrival, the earliest ones are grouped into a bound set of size up to
    ``k`` and collapsed through Roth-Karp encoders (one extra level for the
    encoder LUTs), repeating until the image fits one K-LUT.  Bound sets
    that do not reduce support are retried with smaller sizes and shifted
    windows, within a fixed attempt budget.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if len(arrival) != f.n:
        raise ValueError("arrival vector length mismatch")

    tree = LutTree(num_leaves=f.n)
    # Current working function over "signals": each signal is a leaf index
    # (>= 0) or a LUT output (< 0).  ``current`` has one variable per signal.
    signals: List[int] = list(range(f.n))
    ready: List[int] = list(arrival)
    current, sup = f.shrink_to_support()
    signals = [signals[i] for i in sup]
    ready = [ready[i] for i in sup]
    attempts = 0

    while True:
        if current.n == 0:
            # Constant function: emit one zero-input LUT.
            tree.luts.append(Lut(current, ()))
            return tree if 1 <= deadline else None
        worst = max(ready)
        if current.n <= k:
            if worst + 1 > deadline:
                return None
            tree.luts.append(
                Lut(current, tuple(signals))
            )
            return tree
        # Need to shrink the support: pick a bound set among the earliest
        # arriving signals.  Encoder outputs are ready at max(bound)+1 and
        # must still pass through at least one more LUT (the image), so
        # they need max(bound)+1 <= deadline-1.
        order = sorted(range(current.n), key=lambda i: (ready[i], i))
        found = None
        for size in range(min(k, current.n - 1), 1, -1):
            for start in range(0, current.n - size + 1):
                if attempts >= MAX_ATTEMPTS:
                    return None
                window = [order[start + j] for j in range(size)]
                bound_ready = max(ready[i] for i in window) + 1
                if bound_ready > deadline - 1:
                    break  # windows only get later from here
                attempts += 1
                step = disjoint_decompose(current, window)
                if step is not None:
                    found = (step, bound_ready)
                    break
            if found:
                break
        if not found:
            return None
        step, bound_ready = found
        bound_signals = tuple(signals[i] for i in step.bound)
        code_refs: List[int] = []
        for alpha in step.alphas:
            shrunk, alpha_sup = alpha.shrink_to_support()
            tree.luts.append(
                Lut(shrunk, tuple(bound_signals[i] for i in alpha_sup))
            )
            code_refs.append(-len(tree.luts))
        # New working function: code vars first, then surviving free vars.
        signals = code_refs + [signals[i] for i in step.free]
        ready = [bound_ready] * len(code_refs) + [ready[i] for i in step.free]
        current = step.image
        current, sup = current.shrink_to_support()
        signals = [signals[i] for i in sup]
        ready = [ready[i] for i in sup]
