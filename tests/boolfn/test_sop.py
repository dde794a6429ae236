"""Tests for cube covers and the two-level minimizer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.boolfn.sop import Cover, Cube, minimize_cover, prime_implicants
from repro.boolfn.truthtable import TruthTable

tables = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.builds(
        TruthTable,
        st.just(n),
        st.integers(min_value=0, max_value=(1 << (1 << n)) - 1),
    )
)


class TestCube:
    def test_contains(self):
        cube = Cube.from_string("1-0")
        assert cube.contains(0b001)
        assert cube.contains(0b011)
        assert not cube.contains(0b101)
        assert not cube.contains(0b000)

    def test_string_roundtrip(self):
        for text in ["---", "101", "0-1", ""]:
            assert Cube.from_string(text).to_string(len(text)) == text

    def test_bad_character(self):
        with pytest.raises(ValueError):
            Cube.from_string("1x0")

    def test_polarity_outside_care(self):
        with pytest.raises(ValueError):
            Cube(care=0b01, polarity=0b10)

    def test_num_literals(self):
        assert Cube.from_string("1-0-").num_literals() == 2

    def test_table(self):
        cube = Cube.from_string("1-")
        assert cube.table(2) == TruthTable.var(0, 2)


class TestCover:
    def test_to_truthtable(self):
        cover = Cover.from_strings(2, ["11", "00"])
        t = cover.to_truthtable()
        assert [t.value(i) for i in range(4)] == [1, 0, 0, 1]

    def test_empty_cover_is_zero(self):
        assert Cover(3).to_truthtable() == TruthTable.const(3, False)

    def test_universal_cube_is_one(self):
        cover = Cover(3, [Cube(0, 0)])
        assert cover.to_truthtable() == TruthTable.const(3, True)

    def test_num_literals(self):
        cover = Cover.from_strings(3, ["1-0", "011"])
        assert cover.num_literals() == 5


class TestPrimeImplicants:
    def test_xor_primes(self):
        t = TruthTable.var(0, 2) ^ TruthTable.var(1, 2)
        primes = prime_implicants(t)
        assert sorted(c.to_string(2) for c in primes) == ["01", "10"]

    def test_absorbing_function(self):
        # f = x0 | (x0' & x1) == x0 | x1: primes are '1-' and '-1'
        t = TruthTable.var(0, 2) | TruthTable.var(1, 2)
        primes = prime_implicants(t)
        assert sorted(c.to_string(2) for c in primes) == ["-1", "1-"]

    def test_const_one(self):
        t = TruthTable.const(2, True)
        primes = prime_implicants(t)
        assert len(primes) == 1 and primes[0].care == 0

    @given(tables)
    def test_primes_cover_exactly(self, t):
        """The union of all primes equals the function."""
        primes = prime_implicants(t)
        rebuilt = Cover(t.n, primes).to_truthtable()
        assert rebuilt == t


class TestMinimizeCover:
    @given(tables)
    def test_exactness(self, t):
        cover = minimize_cover(t)
        assert cover.to_truthtable() == t

    def test_minimal_for_or(self):
        t = TruthTable.var(0, 3) | TruthTable.var(1, 3) | TruthTable.var(2, 3)
        cover = minimize_cover(t)
        assert len(cover) == 3
        assert cover.num_literals() == 3

    def test_zero_function(self):
        assert len(minimize_cover(TruthTable.const(4, False))) == 0

    def test_large_arity_heuristic_exact(self):
        from repro.rng import default_rng

        rng = default_rng(11)
        t = TruthTable.random(11, rng)  # above QM_MAX_VARS
        cover = minimize_cover(t)
        assert cover.to_truthtable() == t
