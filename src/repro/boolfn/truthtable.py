"""Packed truth tables for Boolean functions of a bounded number of variables.

A :class:`TruthTable` represents a completely specified Boolean function of
``n`` ordered variables as ``2**n`` bits packed into a Python integer.  Bit
``i`` of :attr:`TruthTable.bits` is the function value on the input
assignment encoded by ``i``, with variable 0 in the least significant
position (``x0 = i & 1``, ``x1 = (i >> 1) & 1``, ...).

Truth tables are the workhorse function representation of this project: the
cones resynthesized by TurboSYN are bounded to ``Cmax = 15`` inputs, so a
dense table (at most ``2**15`` bits, i.e. 4 KiB) is both exact and fast.
Tables are immutable and hashable; bulk operations run on Python big-int
bit algebra (delta-swaps, periodic masks).

The companion :mod:`repro.boolfn.bdd` module provides a ROBDD engine used to
cross-check decompositions and for equivalence checking of larger functions.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple


#: Hard cap on the number of variables of a dense table.  ``2**MAX_VARS``
#: bits must stay cheap to copy; 20 variables is a 128 KiB table.
MAX_VARS = 20


def _check_nvars(n: int) -> None:
    if not 0 <= n <= MAX_VARS:
        raise ValueError(f"truth table arity {n} outside [0, {MAX_VARS}]")


def _periodic_mask(block: int, period: int, total: int) -> int:
    """``block`` replicated with ``period`` bits of stride across ``total``."""
    mask = block
    width = period
    while width < total:
        mask |= mask << width
        width <<= 1
    return mask & ((1 << total) - 1)


#: Projection masks by ``(i, n)``; see :func:`var_mask`.
_VAR_MASKS: Dict[Tuple[int, int], int] = {}


def var_mask(i: int, n: int) -> int:
    """Bits of the projection ``x_i`` over ``n`` variables (memoized).

    Bit ``a`` is set iff assignment ``a`` has ``x_i = 1``: blocks of
    ``2**i`` zeros then ``2**i`` ones, repeated across ``2**n`` bits.
    Callers validate ``0 <= i < n <= MAX_VARS``.
    """
    key = (i, n)
    mask = _VAR_MASKS.get(key)
    if mask is None:
        half = 1 << i
        mask = _periodic_mask(((1 << half) - 1) << half, half << 1, 1 << n)
        _VAR_MASKS[key] = mask
    return mask


def _swap_vars_bits(bits: int, n: int, i: int, j: int) -> int:
    """Table bits with variables ``i`` and ``j`` exchanged (delta-swap).

    Assignment indices with ``x_i = 1, x_j = 0`` trade places with their
    ``x_i = 0, x_j = 1`` partners ``delta = 2**j - 2**i`` positions up —
    one masked xor-swap over the whole table, no arrays.
    """
    if i == j:
        return bits
    if i > j:
        i, j = j, i
    mask = var_mask(i, n) & ~var_mask(j, n)
    delta = (1 << j) - (1 << i)
    t = ((bits >> delta) ^ bits) & mask
    return bits ^ t ^ (t << delta)


def eval_gate_columns(func: "TruthTable", child_cols: Sequence[int], width: int) -> int:
    """Bit-parallel gate evaluation over packed assignment columns.

    ``child_cols[j]`` packs the value of fanin ``j`` on each of the
    ``2**width`` assignments (bit ``a`` = value on assignment ``a``).
    Returns the equally packed output column of ``func`` — the pure-int
    minterm expansion the cycle simulator uses, shared here with cone
    evaluation.
    """
    full = (1 << (1 << width)) - 1
    out = 0
    for m in range(func.size):
        if not (func.bits >> m) & 1:
            continue
        term = full
        for j, col in enumerate(child_cols):
            term &= col if (m >> j) & 1 else (~col & full)
            if not term:
                break
        out |= term
        if out == full:
            break
    return out


class TruthTable:
    """An immutable, completely specified Boolean function of ``n`` variables.

    Parameters
    ----------
    n:
        Number of input variables (0 to :data:`MAX_VARS`).
    bits:
        The ``2**n`` function bits packed into an int (bit ``i`` is the value
        on assignment ``i``).  Bits above ``2**n`` must be zero.
    """

    __slots__ = ("n", "bits", "_hash")

    def __init__(self, n: int, bits: int) -> None:
        _check_nvars(n)
        size = 1 << n
        if bits < 0 or bits >> size:
            raise ValueError("bits outside table range")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("TruthTable is immutable")

    def __reduce__(self) -> Tuple[type, Tuple[int, int]]:
        # The default slots protocol restores via setattr, which the
        # immutability guard rejects; rebuild through the constructor so
        # tables survive pickling (spawn-start worker processes receive
        # circuits that way).
        return (type(self), (self.n, self.bits))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def const(cls, n: int, value: bool) -> "TruthTable":
        """The constant-``value`` function of ``n`` variables."""
        _check_nvars(n)
        bits = ((1 << (1 << n)) - 1) if value else 0
        return cls(n, bits)

    @classmethod
    def var(cls, i: int, n: int) -> "TruthTable":
        """The projection function ``f(x) = x_i`` over ``n`` variables."""
        _check_nvars(n)
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} outside [0, {n})")
        return cls(n, var_mask(i, n))

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "TruthTable":
        """Build a table from an explicit output column of length ``2**n``."""
        size = len(values)
        n = size.bit_length() - 1
        if 1 << n != size:
            raise ValueError("length of values must be a power of two")
        bits = 0
        for i, v in enumerate(values):
            if v:
                bits |= 1 << i
        return cls(n, bits)

    @classmethod
    def from_function(cls, n: int, fn: Callable[..., bool]) -> "TruthTable":
        """Build a table by evaluating ``fn(x0, x1, ..., x{n-1})`` everywhere."""
        _check_nvars(n)
        bits = 0
        for i in range(1 << n):
            args = [(i >> j) & 1 for j in range(n)]
            if fn(*args):
                bits |= 1 << i
        return cls(n, bits)

    @classmethod
    def random(cls, n: int, rng: Any) -> "TruthTable":
        """A uniformly random function of ``n`` variables."""
        _check_nvars(n)
        nbytes = max(1, (1 << n) // 8) if n >= 3 else 1
        raw = int.from_bytes(rng.bytes(nbytes), "little")
        return cls(n, raw & ((1 << (1 << n)) - 1))

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of rows (``2**n``)."""
        return 1 << self.n

    def value(self, assignment: int) -> int:
        """Function value on the assignment encoded as an integer."""
        if not 0 <= assignment < self.size:
            raise ValueError("assignment out of range")
        return (self.bits >> assignment) & 1

    def eval(self, inputs: Sequence[int]) -> int:
        """Function value on an explicit 0/1 input vector."""
        if len(inputs) != self.n:
            raise ValueError(f"expected {self.n} inputs, got {len(inputs)}")
        idx = 0
        for j, v in enumerate(inputs):
            if v:
                idx |= 1 << j
        return (self.bits >> idx) & 1

    def is_const(self) -> bool:
        """True when the function is constant 0 or constant 1."""
        return self.bits == 0 or self.bits == (1 << self.size) - 1

    def count_ones(self) -> int:
        """Number of satisfying assignments (minterm count)."""
        return bin(self.bits).count("1")

    def depends_on(self, i: int) -> bool:
        """True when the function essentially depends on variable ``i``.

        Bit-parallel: each ``x_i = 0`` row is compared with its
        ``x_i = 1`` partner ``2**i`` positions up, in one shift and xor.
        """
        n = self.n
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} outside [0, {n})")
        bits = self.bits
        return ((bits >> (1 << i)) ^ bits) & ~var_mask(i, n) != 0

    def support(self) -> Tuple[int, ...]:
        """Indices of the variables the function essentially depends on."""
        n = self.n
        bits = self.bits
        return tuple(
            i
            for i in range(n)
            if ((bits >> (1 << i)) ^ bits) & ~var_mask(i, n)
        )

    # ------------------------------------------------------------------
    # Boolean algebra
    # ------------------------------------------------------------------
    def _binop(self, other: "TruthTable", fn: Callable[[int, int], int]) -> "TruthTable":
        if not isinstance(other, TruthTable):
            return NotImplemented  # type: ignore[return-value]
        if other.n != self.n:
            raise ValueError("arity mismatch in truth table operation")
        return TruthTable(self.n, fn(self.bits, other.bits) & ((1 << self.size) - 1))

    def __and__(self, other: "TruthTable") -> "TruthTable":
        return self._binop(other, lambda a, b: a & b)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        return self._binop(other, lambda a, b: a | b)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        return self._binop(other, lambda a, b: a ^ b)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.n, self.bits ^ ((1 << self.size) - 1))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruthTable)
            and other.n == self.n
            and other.bits == self.bits
        )

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.n, self.bits))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if self.n <= 6:
            digits = (self.size + 3) // 4
            return f"TruthTable({self.n}, 0x{self.bits:0{digits}x})"
        return f"TruthTable({self.n} vars, {self.count_ones()} minterms)"

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def cofactor_keep(self, i: int, val: int) -> "TruthTable":
        """Cofactor w.r.t. ``x_i = val`` keeping the original arity.

        Rows where ``x_i != val`` are overwritten by their mirror rows, so
        the result no longer depends on ``x_i``.
        """
        if not 0 <= i < self.n:
            raise ValueError(f"variable index {i} outside [0, {self.n})")
        mask = var_mask(i, self.n)
        full = (1 << self.size) - 1
        if val:
            high = self.bits & mask
            return TruthTable(self.n, high | (high >> (1 << i)))
        low = self.bits & (full ^ mask)
        return TruthTable(self.n, low | ((low << (1 << i)) & full))

    def cofactor(self, i: int, val: int) -> "TruthTable":
        """Cofactor w.r.t. ``x_i = val`` with variable ``i`` removed.

        Variables above ``i`` shift down by one position.
        """
        kept = self.cofactor_keep(i, val)
        return kept.remove_var(i)

    def remove_var(self, i: int) -> "TruthTable":
        """Drop variable ``i`` (which must be non-essential)."""
        if self.depends_on(i):
            raise ValueError(f"variable {i} is essential; cannot remove")
        # Keep the x_i = 0 rows (blocks of 2**i bits at stride 2**(i+1)),
        # then close the gaps by doubling the block size each pass.
        total = 1 << self.n
        bits = self.bits & ~var_mask(i, self.n)
        size = 1 << i
        while size < total >> 1:
            even = _periodic_mask((1 << size) - 1, 4 * size, total)
            bits = (bits & even) | ((bits >> size) & (even << size))
            size <<= 1
        return TruthTable(self.n - 1, bits)

    def permute(self, perm: Sequence[int]) -> "TruthTable":
        """Reorder variables: new variable ``j`` is old variable ``perm[j]``.

        ``perm`` must be a permutation of ``range(n)``.  The resulting table
        ``g`` satisfies ``g(y0..y{n-1}) = f(x)`` with ``x[perm[j]] = y[j]``.
        """
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of range(n)")
        if list(perm) == list(range(self.n)):
            return self
        # Cycle-sort the variables into place; each transposition is one
        # delta-swap over the packed bits (no array materialization).
        n = self.n
        bits = self.bits
        pos = list(range(n))  # pos[old_var] = its current table position
        cur = list(range(n))  # cur[position] = the old var sitting there
        for j in range(n):
            want = perm[j]
            p = pos[want]
            if p != j:
                bits = _swap_vars_bits(bits, n, j, p)
                other = cur[j]
                cur[j], cur[p] = want, other
                pos[want], pos[other] = j, p
        return TruthTable(n, bits)

    def extend(self, n: int, placement: Sequence[int]) -> "TruthTable":
        """Embed into a larger arity ``n``: old var ``j`` becomes ``placement[j]``."""
        if n < self.n:
            raise ValueError("cannot extend to a smaller arity")
        if len(set(placement)) != self.n or any(not 0 <= p < n for p in placement):
            raise ValueError("placement must be distinct indices below n")
        # Replicate up to arity n (new high variables are don't-care),
        # then permute old var j into position placement[j].
        bits = self.bits
        size = self.size
        while size < (1 << n):
            bits |= bits << size
            size <<= 1
        perm = [-1] * n
        for j, p in enumerate(placement):
            perm[p] = j
        extra = iter(range(self.n, n))
        for q in range(n):
            if perm[q] < 0:
                perm[q] = next(extra)
        return TruthTable(n, bits).permute(perm)

    def compose(self, i: int, g: "TruthTable") -> "TruthTable":
        """Substitute function ``g`` (same arity) for variable ``i``."""
        if g.n != self.n:
            raise ValueError("compose requires matching arities")
        f1 = self.cofactor_keep(i, 1)
        f0 = self.cofactor_keep(i, 0)
        return (g & f1) | (~g & f0)

    def shrink_to_support(self) -> Tuple["TruthTable", Tuple[int, ...]]:
        """Project onto the essential support.

        Returns ``(g, support)`` where ``g`` has arity ``len(support)`` and
        ``g(x[support[0]], ...) == f(x)``.
        """
        sup = self.support()
        table = self
        removed = 0
        for i in range(self.n):
            if i not in sup:
                table = table.remove_var(i - removed)
                removed += 1
        return table, sup

    # ------------------------------------------------------------------
    # Decomposition support
    # ------------------------------------------------------------------
    def columns(self, bound: Sequence[int]) -> List[int]:
        """Decomposition chart columns for a bound set of variables.

        For the (disjoint) partition ``bound`` / ``free = rest``, returns a
        list of Python ints of length ``2**|bound|`` where
        entry ``b`` packs the sub-function ``f(bound := b, free)`` as
        ``2**|free|`` bits (free variables in ascending original order).
        The number of distinct entries is the classical Roth-Karp *column
        multiplicity* ``mu``: ``f`` has a disjoint decomposition
        ``f = g(alpha_1(bound) .. alpha_t(bound), free)`` iff
        ``mu <= 2**t``.
        """
        bound = list(bound)
        if len(set(bound)) != len(bound) or any(not 0 <= b < self.n for b in bound):
            raise ValueError("bound set must be distinct variable indices")
        free = [i for i in range(self.n) if i not in bound]
        perm = free + bound  # new var j <- old var perm[j]: free vars low
        reordered = self.permute(perm)
        chunk = 1 << len(free)
        mask = (1 << chunk) - 1
        bits = reordered.bits
        return [
            (bits >> (b * chunk)) & mask for b in range(1 << len(bound))
        ]

    def column_multiplicity(self, bound: Sequence[int]) -> int:
        """Roth-Karp column multiplicity for the given bound set."""
        return len(set(self.columns(bound)))
