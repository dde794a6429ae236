"""Tests for multi-output (shared-encoder) functional decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolfn.modecomp import (
    best_shared_bound,
    encoder_savings,
    joint_multiplicity,
    shared_decompose,
)
from repro.boolfn.truthtable import TruthTable
from repro.rng import default_rng


def var(i, n=5):
    return TruthTable.var(i, n)


def and_block(n=5):
    """f1 = x0&x1&x2 over 5 vars; f2 = (x0&x1&x2) ^ x3."""
    conj = var(0) & var(1) & var(2)
    return conj & var(3), conj ^ var(3)


class TestJointMultiplicity:
    def test_shared_structure_small_mu(self):
        f1, f2 = and_block()
        # Both functions factor through x0&x1&x2: joint mu over that
        # bound set is 2 (columns determined by the conjunction value).
        assert joint_multiplicity([f1, f2], [0, 1, 2]) == 2

    def test_unrelated_functions_multiply(self):
        f1 = var(0) ^ var(1)
        f2 = var(0) & var(1)
        # separate mus are 2 and 2; the joint vector needs more codes
        mu = joint_multiplicity([f1, f2], [0, 1])
        assert mu == 3  # (0,0), (1,0), (0,1) ... vectors over b-assignments

    def test_single_function_matches_column_multiplicity(self):
        rng = default_rng(3)
        f = TruthTable.random(5, rng)
        assert joint_multiplicity([f], [0, 1, 2]) == f.column_multiplicity([0, 1, 2])

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            joint_multiplicity([var(0, 3), var(0, 4)], [0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            joint_multiplicity([], [0])


class TestSharedDecompose:
    def test_shared_encoders_exact(self):
        f1, f2 = and_block()
        step = shared_decompose([f1, f2], [0, 1, 2])
        assert step is not None
        assert len(step.alphas) == 1  # one shared encoder
        assert step.recompose(0, 5) == f1
        assert step.recompose(1, 5) == f2

    def test_no_gain_refused(self):
        # Joint multiplicity of two "independent" functions over a
        # 2-variable bound set needs 2 bits: no support reduction.
        f1 = var(0) ^ var(1)
        f2 = var(0) & var(1)
        assert shared_decompose([f1, f2], [0, 1]) is None

    @given(
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.integers(min_value=0, max_value=(1 << 16) - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_recompose_exact_random(self, bits1, bits2):
        f1 = TruthTable(4, bits1)
        f2 = TruthTable(4, bits2)
        step = shared_decompose([f1, f2], [0, 1, 2])
        if step is not None:
            assert step.recompose(0, 4) == f1
            assert step.recompose(1, 4) == f2


class TestBestSharedBound:
    def test_finds_the_shared_block(self):
        f1, f2 = and_block()
        bound = best_shared_bound([f1, f2], size=3)
        assert bound == (0, 1, 2)

    def test_none_when_nothing_decomposes(self):
        rng = default_rng(1)
        f1, f2 = TruthTable.random(5, rng), TruthTable.random(5, rng)
        # random pairs almost surely have full joint multiplicity
        assert best_shared_bound([f1, f2], size=2) is None

    def test_size_exceeds_support(self):
        assert best_shared_bound([var(0)], size=6) is None


class TestOnRealisticFunctions:
    def test_fsm_output_plane_shares_encoders(self):
        """The paper's use case: multi-output planes of one controller."""
        from repro.bench.fsm import encode_fsm, random_fsm

        fsm = random_fsm("mo", 6, 3, 4, seed=21, split_depth=2)
        ns_tables, out_tables, bits = encode_fsm(fsm, "binary")
        funcs = [t for t in ns_tables + out_tables if len(t.support()) >= 3]
        assert len(funcs) >= 2
        bound = best_shared_bound(funcs[:2], size=3)
        if bound is not None:
            step = shared_decompose(funcs[:2], bound)
            assert step is not None
            for i, f in enumerate(funcs[:2]):
                assert step.recompose(i, f.n) == f

    def test_joint_at_least_single_multiplicity(self):
        """Joint multiplicity dominates each member's multiplicity."""
        rng = default_rng(7)
        f1 = TruthTable.random(5, rng)
        f2 = TruthTable.random(5, rng)
        for bound in ([0, 1, 2], [1, 3, 4], [0, 2, 4]):
            joint = joint_multiplicity([f1, f2], bound)
            assert joint >= f1.column_multiplicity(bound)
            assert joint >= f2.column_multiplicity(bound)
            assert joint <= f1.column_multiplicity(bound) * f2.column_multiplicity(
                bound
            )


class TestEncoderSavings:
    def test_sharing_saves(self):
        f1, f2 = and_block()
        saved = encoder_savings([f1, f2], [0, 1, 2])
        assert saved == 1  # two separate encoders collapse into one

    def test_incomparable_returns_none(self):
        f1 = var(0) ^ var(1)
        f2 = var(0) & var(1)
        assert encoder_savings([f1, f2], [0, 1]) is None
