"""Differential tests for the label solver and cross-probe warm starts.

The event-driven worklist solver must agree label-for-label with the
definition-level oracle of ``tests/helpers.py`` — a round-robin sweep
with no memo, tuple-copy expansions and Edmonds-Karp cuts (same
fixpoint, same infeasibility verdicts, same failed SCC) — and a
warm-started probe must converge to the same labels as a cold one.
These tests pin both properties on synthetic circuits, on random
sequential circuits, and on the benchmark suite.
"""

import pytest

from repro.bench import suite as bench_suite
from repro.core import driver
from repro.core.driver import (
    make_resyn_hook,
    nearest_warm_seed,
    probe_phi,
    search_min_phi,
)
from repro.core.labels import LabelSolver
from repro.retime.mdr import min_feasible_period
from tests.core.test_labels import and_ring, buffer_ring
from tests.helpers import (
    OracleLabelSolver,
    cold_search_min_phi,
    random_seq_circuit,
)


def _outcome(circuit, k, phi, solver=LabelSolver, resyn=False, seed=None,
             **kwargs):
    hook = make_resyn_hook() if resyn else None
    return solver(
        circuit, k, phi, resyn_hook=hook, seed_labels=seed, **kwargs
    ).run()


def _assert_same(a, b, tag):
    assert a.feasible == b.feasible, tag
    if a.feasible:
        assert a.labels == b.labels, tag
    else:
        assert sorted(a.failed_scc) == sorted(b.failed_scc), tag


class TestWorklistMatchesRounds:
    """The worklist solver against the round-robin oracle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuits_label_for_label(self, seed):
        c = random_seq_circuit(3, 18, seed=seed)
        for phi in (1, 2, 3):
            _assert_same(
                _outcome(c, 3, phi, OracleLabelSolver),
                _outcome(c, 3, phi),
                (seed, phi),
            )

    def test_rings_label_for_label(self):
        for c, k in [(and_ring(8, 1), 3), (and_ring(9, 2), 4),
                     (buffer_ring(6, 2), 2)]:
            for phi in (1, 2, 3, 4):
                _assert_same(
                    _outcome(c, k, phi, OracleLabelSolver),
                    _outcome(c, k, phi),
                    (c.name, phi),
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_with_resynthesis_hook(self, seed):
        c = random_seq_circuit(4, 16, seed=seed)
        for phi in (1, 2):
            _assert_same(
                _outcome(c, 4, phi, OracleLabelSolver, resyn=True),
                _outcome(c, 4, phi, resyn=True),
                (seed, phi),
            )

    def test_suite_circuit_label_for_label(self):
        c = bench_suite.build("dk16")
        phi = min_feasible_period(c)
        for probe in (phi, phi + 1):
            a = OracleLabelSolver(c, 5, probe).run()
            b = probe_phi(c, 5, probe, False)
            assert a.feasible == b.feasible
            assert a.labels == b.labels

    @pytest.mark.parametrize("seed", range(8))
    def test_deeper_expansion_label_for_label(self, seed):
        # extra_depth=1 exposes candidate copies, so cut queries reach
        # the Dinic solver instead of the frontier shortcut.
        c = random_seq_circuit(4, 20, seed=seed)
        for resyn in (False, True):
            for phi in (1, 2, 3):
                _assert_same(
                    _outcome(c, 4, phi, OracleLabelSolver, resyn=resyn,
                             extra_depth=1),
                    _outcome(c, 4, phi, resyn=resyn, extra_depth=1),
                    (seed, resyn, phi),
                )

    @pytest.mark.parametrize("resyn", [False, True])
    @pytest.mark.parametrize("name", bench_suite.quick_subset())
    def test_quick_subset_every_phi(self, name, resyn):
        c = bench_suite.build(name)
        for phi in range(1, 7):
            _assert_same(
                _outcome(c, 5, phi, OracleLabelSolver, resyn=resyn),
                _outcome(c, 5, phi, resyn=resyn),
                (name, phi, resyn),
            )

    @pytest.mark.xfail(
        strict=True,
        reason="a cold worklist run re-anchors a witness cut below the "
        "depth-0 frontier and ends under the oracle (ROADMAP open items)",
    )
    def test_s1_cold_label_for_label(self):
        c = bench_suite.build("s1")
        _assert_same(
            OracleLabelSolver(c, 5, 4).run(), LabelSolver(c, 5, 4).run(), "s1"
        )


class TestWarmStart:
    def test_seed_length_validated(self):
        with pytest.raises(ValueError, match="seed label vector"):
            LabelSolver(and_ring(4, 1), k=3, phi=2, seed_labels=[1, 2, 3])

    def test_seeded_probe_matches_cold(self):
        c = and_ring(9, 2)
        cold_hi = _outcome(c, 3, 4)
        assert cold_hi.feasible
        cold_lo = _outcome(c, 3, 3)
        warm_lo = _outcome(c, 3, 3, seed=cold_hi.labels)
        assert warm_lo.feasible == cold_lo.feasible
        assert warm_lo.labels == cold_lo.labels
        assert warm_lo.stats.warm_seeded == 1
        assert warm_lo.stats.warm_savings > 0
        assert warm_lo.stats.updates <= cold_lo.stats.updates

    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits_warm_equals_cold(self, seed):
        c = random_seq_circuit(3, 20, seed=seed)
        outcomes = {}
        for phi in (6, 5, 4, 3, 2, 1):
            cold = _outcome(c, 3, phi)
            found = nearest_warm_seed(outcomes, phi)
            warm = _outcome(c, 3, phi, seed=found[1] if found else None)
            assert warm.feasible == cold.feasible, (seed, phi)
            if cold.feasible:
                assert warm.labels == cold.labels, (seed, phi)
            outcomes[phi] = warm

    def test_nearest_warm_seed_picks_tightest_feasible(self):
        c = and_ring(8, 1)
        outcomes = {
            6: _outcome(c, 3, 6),
            5: _outcome(c, 3, 5),
            3: _outcome(c, 3, 3),  # infeasible: never a seed
        }
        assert not outcomes[3].feasible
        for phi in (4, 2):
            found_phi, labels = nearest_warm_seed(outcomes, phi)
            assert found_phi == 5
            assert labels is outcomes[5].labels
        assert nearest_warm_seed(outcomes, 6) is None


class TestSearchMinPhiOnSuite:
    """A cold oracle search and the default warm search agree on
    phi_min and labels, suite-wide."""

    @pytest.mark.parametrize(
        "name", [e.name for e in bench_suite.SUITE]
    )
    def test_cold_and_warm_search_agree(self, name, monkeypatch):
        c = bench_suite.build(name)
        upper = min_feasible_period(c)
        with monkeypatch.context() as patch:
            # probe_phi builds its solver from the driver module's name.
            patch.setattr(driver, "LabelSolver", OracleLabelSolver)
            phi_cold, out_cold = cold_search_min_phi(c, 5, upper, False)
        phi_warm, out_warm = search_min_phi(c, 5, upper, False)
        assert phi_warm == phi_cold, name
        assert out_warm[phi_warm].labels == out_cold[phi_cold].labels, name
        total_cold = sum(o.stats.updates for o in out_cold.values())
        total_warm = sum(o.stats.updates for o in out_warm.values())
        assert total_warm <= total_cold, name
