"""numpy's ``default_rng`` stream in pure Python.

The benchmark suite's circuits (Table 1), the random simulators and the
test generators draw from ``numpy.random.default_rng(seed)`` streams.
:func:`default_rng` reproduces them bit for bit on the five calls the
project makes — ``random()``, ``integers(lo, hi)``, ``choice(seq)``,
``choice(n, size, replace=False)`` and ``bytes(n)`` — so every install
builds the same circuits without a third-party package.  The stream is
numpy's: ``SeedSequence`` seeding, PCG64 with XSL-RR 128/64 output
(O'Neill 2014), Lemire's bounded integers (Lemire 2019), and Floyd's
sampling plus a Fisher-Yates shuffle for draws without replacement.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, TypeVar, Union, overload

_T = TypeVar("_T")
_Bytes = bytes

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants; its pool holds four 32-bit words.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _seed_words(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    # Eight 32-bit words cycled from the pool, paired little-endian.
    hash_const = _INIT_B
    state: List[int] = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    return [state[i] | (state[i + 1] << 32) for i in range(0, len(state), 2)]


class Generator:
    """The ``numpy.random.Generator(PCG64(seed))`` surface the project uses."""

    def __init__(self, seed: int) -> None:
        s0, s1, s2, s3 = _seed_words(seed)
        self._inc = ((((s2 << 64) | s3) << 1) | 1) & _MASK128
        self._state = 0
        self._next64()
        self._state = (self._state + ((s0 << 64) | s1)) & _MASK128
        self._next64()
        # High half of the last 64-bit word split by _next32.
        self._half: Optional[int] = None

    def _next64(self) -> int:
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def _bounded(self, rng: int) -> int:
        """A uniform int in ``[0, rng]``, by Lemire's multiply-and-reject."""
        if rng == 0:
            return 0
        bits = 32 if rng <= _MASK32 else 64
        draw: Callable[[], int] = self._next32 if bits == 32 else self._next64
        excl = rng + 1
        low_mask = (1 << bits) - 1
        product = draw() * excl
        if product & low_mask < excl:
            threshold = (1 << bits) % excl
            while product & low_mask < threshold:
                product = draw() * excl
        return product >> bits

    def random(self) -> float:
        """A float in ``[0, 1)``."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, low: int, high: int) -> int:
        """An int in ``[low, high)``, within numpy's int64 bounds."""
        if high <= low:
            raise ValueError(f"low >= high ({low} >= {high})")
        if low < -(1 << 63) or high > 1 << 63:
            raise ValueError(f"[{low}, {high}) is outside the int64 range")
        return low + self._bounded(high - 1 - low)

    @overload
    def choice(self, a: Sequence[_T]) -> _T: ...

    @overload
    def choice(self, a: int, size: int, replace: bool) -> List[int]: ...

    def choice(
        self,
        a: Union[Sequence[_T], int],
        size: Optional[int] = None,
        replace: bool = True,
    ) -> Union[_T, List[int]]:
        """One element of a sequence, or ``size`` distinct ints below ``a``.

        Only the two forms the project draws exist: the scalar
        ``choice(seq)`` and ``choice(n, size, replace=False)``.
        """
        if size is None:
            if isinstance(a, int) or not replace:
                raise ValueError("scalar choice draws from a sequence, with replacement")
            return a[self.integers(0, len(a))]
        if not isinstance(a, int) or replace:
            raise ValueError("sized choice draws from range(n) without replacement")
        return self._sample(a, size)

    def _sample(self, n: int, size: int) -> List[int]:
        """Floyd's sampling, then a Fisher-Yates shuffle of the sample."""
        if not 0 <= size <= n:
            raise ValueError(f"cannot take {size} distinct values from range({n})")
        if n > 10000 and size > n // 50:
            # numpy tail-shuffles range(n) here instead; nothing draws this large.
            raise ValueError(f"choice({n}, {size}, replace=False) is out of range")
        picked: List[int] = []
        seen: Set[int] = set()
        for j in range(n - size, n):
            value = self._bounded(j)
            if value in seen:
                value = j
            seen.add(value)
            picked.append(value)
        for i in range(size - 1, 0, -1):
            j = self._bounded(i)
            picked[i], picked[j] = picked[j], picked[i]
        return picked

    def bytes(self, length: int) -> _Bytes:
        """``length`` random bytes: 32-bit words, little-endian, truncated."""
        if length < 0:
            raise ValueError(f"negative byte count {length}")
        # numpy draws one word even for length 0.
        words = max(1, (length + 3) // 4)
        raw = b"".join(self._next32().to_bytes(4, "little") for _ in range(words))
        return raw[:length]


def default_rng(seed: int) -> Generator:
    """The stream of ``numpy.random.default_rng(seed)``."""
    return Generator(seed)
