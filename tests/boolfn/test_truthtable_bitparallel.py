"""Bit-parallel truth-table queries against the cofactor definition.

``var``, ``cofactor_keep``, ``depends_on``, ``support`` and
``shrink_to_support`` run on memoized projection masks and shifted
xors; here every one is checked row by row against its definition on
seeded random tables with n = 0..12, including tables whose support is
a strict subset of their variables.
"""

import random

import pytest

from repro.boolfn.truthtable import TruthTable


def _value(t, a):
    return (t.bits >> a) & 1


def _set_bit(a, i, val):
    return (a | (1 << i)) if val else (a & ~(1 << i))


def _random_table(rng, n):
    """A table over ``n`` variables that depends on a random subset."""
    used = sorted(rng.sample(range(n), rng.randint(0, n)))
    inner = rng.getrandbits(1 << len(used))
    values = []
    for a in range(1 << n):
        idx = sum(((a >> v) & 1) << j for j, v in enumerate(used))
        values.append((inner >> idx) & 1)
    return TruthTable.from_values(values)


def _depends_by_definition(t, i):
    return any(
        _value(t, _set_bit(a, i, 0)) != _value(t, _set_bit(a, i, 1))
        for a in range(t.size)
    )


@pytest.mark.parametrize("n", range(13))
def test_queries_match_the_cofactor_definition(n):
    rng = random.Random(1000 + n)
    for _ in range(6 if n <= 8 else 2):
        t = _random_table(rng, n)
        support = tuple(i for i in range(n) if _depends_by_definition(t, i))
        assert t.support() == support
        for i in range(n):
            assert t.depends_on(i) == (i in support)
            proj = TruthTable.var(i, n)
            for val in (0, 1):
                kept = t.cofactor_keep(i, val)
                for a in range(t.size):
                    assert _value(kept, a) == _value(t, _set_bit(a, i, val))
            for a in range(t.size):
                assert _value(proj, a) == (a >> i) & 1
        shrunk, sup = t.shrink_to_support()
        assert sup == support and shrunk.n == len(support)
        for a in range(t.size):
            idx = sum(((a >> v) & 1) << j for j, v in enumerate(support))
            assert _value(shrunk, idx) == _value(t, a)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_out_of_range_variables_still_raise(n):
    t = TruthTable.const(n, True)
    for i in (-1, n):
        with pytest.raises(ValueError, match="outside"):
            t.depends_on(i)
        with pytest.raises(ValueError, match="outside"):
            t.cofactor_keep(i, 1)
        with pytest.raises(ValueError, match="outside"):
            TruthTable.var(i, n)


def test_constructor_range_check_kept():
    with pytest.raises(ValueError, match="bits outside"):
        TruthTable(2, 1 << 4)
    with pytest.raises(ValueError, match="arity"):
        TruthTable.var(0, 21)
