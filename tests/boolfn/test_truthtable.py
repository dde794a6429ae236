"""Unit and property tests for packed truth tables."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.boolfn.truthtable import MAX_VARS, TruthTable
from repro.rng import default_rng


def random_table(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    bits = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    return TruthTable(n, bits)


tables = st.builds(
    lambda n_and_bits: TruthTable(n_and_bits[0], n_and_bits[1]),
    st.integers(min_value=0, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(min_value=0, max_value=(1 << (1 << n)) - 1)
        )
    ),
)


class TestConstructors:
    def test_const_false(self):
        t = TruthTable.const(3, False)
        assert t.bits == 0
        assert t.is_const()

    def test_const_true(self):
        t = TruthTable.const(3, True)
        assert t.bits == 0xFF
        assert t.is_const()

    def test_var_patterns(self):
        x0 = TruthTable.var(0, 2)
        x1 = TruthTable.var(1, 2)
        assert [x0.value(i) for i in range(4)] == [0, 1, 0, 1]
        assert [x1.value(i) for i in range(4)] == [0, 0, 1, 1]

    def test_var_out_of_range(self):
        with pytest.raises(ValueError):
            TruthTable.var(2, 2)

    def test_from_values_roundtrip(self):
        vals = [0, 1, 1, 0, 1, 0, 0, 1]
        t = TruthTable.from_values(vals)
        assert [t.value(i) for i in range(8)] == vals

    def test_from_values_bad_length(self):
        with pytest.raises(ValueError):
            TruthTable.from_values([0, 1, 1])

    def test_from_function_majority(self):
        maj = TruthTable.from_function(3, lambda a, b, c: a + b + c >= 2)
        assert maj.count_ones() == 4
        assert maj.eval([1, 1, 0]) == 1
        assert maj.eval([1, 0, 0]) == 0

    def test_arity_bounds(self):
        with pytest.raises(ValueError):
            TruthTable(MAX_VARS + 1, 0)
        with pytest.raises(ValueError):
            TruthTable(1, 0b10000)

    def test_immutability(self):
        t = TruthTable.const(2, False)
        with pytest.raises(AttributeError):
            t.bits = 5


class TestAlgebra:
    def test_demorgan(self):
        a = TruthTable.var(0, 3)
        b = TruthTable.var(1, 3)
        assert ~(a & b) == (~a | ~b)

    def test_xor_definition(self):
        a = TruthTable.var(0, 2)
        b = TruthTable.var(1, 2)
        assert (a ^ b) == ((a & ~b) | (~a & b))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            TruthTable.var(0, 2) & TruthTable.var(0, 3)

    def test_hash_consistency(self):
        a = TruthTable.var(0, 3) & TruthTable.var(1, 3)
        b = TruthTable.var(1, 3) & TruthTable.var(0, 3)
        assert a == b and hash(a) == hash(b)

    @given(tables)
    def test_double_negation(self, t):
        assert ~~t == t

    @given(tables)
    def test_and_or_absorption(self, t):
        assert (t & t) == t
        assert (t | t) == t
        assert (t ^ t).bits == 0


class TestCofactors:
    def test_cofactor_keep_and(self):
        f = TruthTable.var(0, 2) & TruthTable.var(1, 2)
        assert f.cofactor_keep(0, 1) == TruthTable.var(1, 2)
        assert f.cofactor_keep(0, 0).bits == 0

    def test_cofactor_removes_var(self):
        f = TruthTable.var(0, 3) | TruthTable.var(2, 3)
        g = f.cofactor(0, 0)
        assert g.n == 2
        # remaining variables shift down: old var2 -> new var1
        assert g == TruthTable.var(1, 2)

    @given(tables, st.data())
    def test_shannon_expansion(self, t, data):
        if t.n == 0:
            return
        i = data.draw(st.integers(min_value=0, max_value=t.n - 1))
        x = TruthTable.var(i, t.n)
        rebuilt = (x & t.cofactor_keep(i, 1)) | (~x & t.cofactor_keep(i, 0))
        assert rebuilt == t

    def test_remove_essential_raises(self):
        f = TruthTable.var(0, 2)
        with pytest.raises(ValueError):
            f.remove_var(0)

    def test_support(self):
        f = TruthTable.var(0, 4) ^ TruthTable.var(2, 4)
        assert f.support() == (0, 2)

    def test_shrink_to_support(self):
        f = TruthTable.var(1, 4) & TruthTable.var(3, 4)
        g, sup = f.shrink_to_support()
        assert sup == (1, 3)
        assert g == TruthTable.var(0, 2) & TruthTable.var(1, 2)


class TestPermuteExtendCompose:
    @given(tables, st.randoms(use_true_random=False))
    def test_permute_pointwise(self, t, rnd):
        perm = list(range(t.n))
        rnd.shuffle(perm)
        g = t.permute(perm)
        for idx in range(min(t.size, 64)):
            y = [(idx >> j) & 1 for j in range(t.n)]
            x = [0] * t.n
            for j in range(t.n):
                x[perm[j]] = y[j]
            assert g.eval(y) == t.eval(x)

    def test_permute_identity(self):
        t = TruthTable.var(0, 3)
        assert t.permute([0, 1, 2]) is t

    def test_permute_bad(self):
        with pytest.raises(ValueError):
            TruthTable.var(0, 2).permute([0, 0])

    def test_extend_pointwise(self):
        f = TruthTable.var(0, 2) & TruthTable.var(1, 2)
        g = f.extend(4, [3, 1])  # old var0 -> new var3, old var1 -> new var1
        for idx in range(16):
            x = [(idx >> j) & 1 for j in range(4)]
            assert g.eval(x) == (x[3] & x[1])

    def test_compose(self):
        f = TruthTable.var(0, 3) | TruthTable.var(1, 3)
        g = TruthTable.var(1, 3) & TruthTable.var(2, 3)
        h = f.compose(0, g)
        for idx in range(8):
            x = [(idx >> j) & 1 for j in range(3)]
            assert h.eval(x) == ((x[1] & x[2]) | x[1])


class TestColumns:
    def test_multiplicity_of_and(self):
        # f = (x0 & x1) & x2 : columns over bound {0,1} are {0, x2}: mu = 2
        f = (
            TruthTable.var(0, 3)
            & TruthTable.var(1, 3)
            & TruthTable.var(2, 3)
        )
        assert f.column_multiplicity([0, 1]) == 2

    def test_multiplicity_of_xor(self):
        f = TruthTable.var(0, 3) ^ TruthTable.var(1, 3) ^ TruthTable.var(2, 3)
        assert f.column_multiplicity([0, 1]) == 2

    def test_multiplicity_nondecomposable(self):
        # 2-out-of-3 majority has mu = 3 over any 2-variable bound set.
        maj = TruthTable.from_function(3, lambda a, b, c: a + b + c >= 2)
        assert maj.column_multiplicity([0, 1]) == 3

    def test_columns_are_subfunctions(self):
        f = TruthTable.from_function(3, lambda a, b, c: (a and not b) or c)
        cols = f.columns([0, 1])
        assert len(cols) == 4
        # bound assignment a=1, b=0 -> residual function of c is (1 or c)=1
        assert cols[0b01] == 0b11

    @given(tables)
    def test_multiplicity_bounds(self, t):
        if t.n < 2:
            return
        bound = [0, 1]
        mu = t.column_multiplicity(bound)
        assert 1 <= mu <= 4


class TestMisc:
    def test_value_range(self):
        t = TruthTable.const(2, True)
        with pytest.raises(ValueError):
            t.value(4)

    def test_eval_wrong_arity(self):
        with pytest.raises(ValueError):
            TruthTable.const(2, True).eval([0])

    def test_repr_small_and_large(self):
        assert "0x" in repr(TruthTable.var(0, 2))
        assert "minterms" in repr(TruthTable.const(7, True))

    def test_random_is_deterministic_per_seed(self):
        a = TruthTable.random(4, default_rng(3))
        b = TruthTable.random(4, default_rng(3))
        assert a == b
