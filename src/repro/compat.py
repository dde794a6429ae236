"""Optional-dependency shims: numpy as an opt-in accelerator.

numpy is the optional ``[vector]`` extra.  Everything the paper
reproduction *needs* — labels, cuts, mapping, retiming, verification —
runs on pure-Python integer kernels; numpy buys the register-minimization
LP and the exact benchmark-suite generator streams
(``numpy.random.Generator``).

This module centralizes the import guard:

``HAVE_NUMPY`` / ``np``
    ``np`` is the numpy module when importable, else ``None``.  Hot
    modules branch on ``HAVE_NUMPY`` once instead of re-trying the
    import.

``require_numpy(feature)``
    Raise a :class:`MissingDependency` naming the feature and the
    install command, for APIs that are numpy-only by contract
    (``TruthTable.from_array`` and friends).

``default_rng(seed)``
    ``numpy.random.default_rng`` when numpy is present — so the
    benchmark suite circuits are bit-identical to the published
    baselines — and a deterministic pure-Python stand-in otherwise.
    The two streams differ; code that needs cross-environment identical
    artifacts must not mix environments, which is why the committed
    ``benchmarks/baseline.json`` is always regenerated with numpy.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Union

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as _numpy

    np: Any = _numpy
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None
    HAVE_NUMPY = False


class MissingDependency(RuntimeError):
    """An optional dependency is required for the requested feature."""


def require_numpy(feature: str) -> Any:
    """Return the numpy module or raise a :class:`MissingDependency`.

    ``feature`` names what the caller was trying to do, so the error
    points at the fix (``pip install 'repro[vector]'``) instead of a
    bare ImportError deep inside a kernel.
    """
    if not HAVE_NUMPY:
        raise MissingDependency(
            f"{feature} requires numpy; install the vector extra: "
            "pip install 'repro[vector]'"
        )
    return np


class PureRng:
    """Deterministic stand-in for ``numpy.random.Generator``.

    Backed by :class:`random.Random` (Mersenne Twister).  Implements the
    small Generator surface the suite generators and simulators use:
    ``random``, ``integers``, ``choice``, ``bytes``.  The stream differs
    from numpy's PCG64, so circuits generated without numpy are valid
    but not bit-identical to the numpy-generated ones; all differential
    tests compare within one environment, never across.
    """

    def __init__(self, seed: int) -> None:
        import random

        self._rng = random.Random(seed)

    def random(self) -> float:
        return self._rng.random()

    def integers(self, low: int, high: Optional[int] = None) -> int:
        if high is None:
            low, high = 0, low
        if high <= low:
            raise ValueError("high must exceed low")
        return self._rng.randrange(low, high)

    def choice(
        self,
        a: Union[int, Sequence[Any]],
        size: Optional[int] = None,
        replace: bool = True,
    ) -> Any:
        pool: List[Any] = list(range(a)) if isinstance(a, int) else list(a)
        if size is None:
            return pool[self._rng.randrange(len(pool))]
        if replace:
            return [pool[self._rng.randrange(len(pool))] for _ in range(size)]
        return self._rng.sample(pool, size)

    def bytes(self, length: int) -> bytes:
        return self._rng.getrandbits(8 * length).to_bytes(length, "little")


def default_rng(seed: int) -> Any:
    """``numpy.random.default_rng`` or the pure fallback (see module doc)."""
    if HAVE_NUMPY:
        return np.random.default_rng(seed)
    return PureRng(seed)
