"""Tests for the binary-search driver shared by TurboMap and TurboSYN."""

import pytest

from repro.bench import suite as bench_suite
from repro.core.driver import SeqMapResult, run_mapper, search_min_phi
from repro.core.turbomap import turbomap
from repro.core.turbosyn import turbosyn
from repro.netlist.graph import SeqCircuit
from repro.netlist.validate import ValidationError
from repro.retime.mdr import min_feasible_period
from tests.helpers import AND2, random_seq_circuit, xor_chain


def and_ring(num_gates, num_ffs=1):
    c = SeqCircuit("andring")
    xs = [c.add_pi(f"x{i}") for i in range(num_gates)]
    g = [c.add_gate_placeholder(f"g{i}", AND2) for i in range(num_gates)]
    for i in range(num_gates):
        w = num_ffs if i == 0 else 0
        c.set_fanins(g[i], [(g[(i - 1) % num_gates], w), (xs[i], 0)])
    c.add_po("o", g[-1])
    c.check()
    return c


class TestSearchMinPhi:
    def test_probes_recorded(self):
        c = and_ring(8)
        phi, outcomes = search_min_phi(c, 5, min_feasible_period(c), False)
        assert phi == 2
        assert phi in outcomes
        assert outcomes[phi].feasible
        # the binary search must have probed at least one infeasible value
        assert any(not o.feasible for o in outcomes.values())

    def test_upper_bound_too_low_recovers(self):
        c = and_ring(8)
        phi, _ = search_min_phi(c, 5, upper_bound=1, resynthesize=False)
        assert phi == 2  # doubled its way up, then narrowed down

    def test_low_upper_bound_recovers(self):
        """The doubling phase after an infeasible bound, on a suite FSM:
        the same optimum and labels as a search from the default bound."""
        circuit = bench_suite.build("dk16")
        phi, outcomes = search_min_phi(circuit, 5, 1, False)
        ref_phi, ref = search_min_phi(
            circuit, 5, min_feasible_period(circuit), False
        )
        assert phi == ref_phi
        assert outcomes[phi].labels == ref[ref_phi].labels
        assert not outcomes[1].feasible

    def test_resynthesize_flag(self):
        c = and_ring(8)
        plain, _ = search_min_phi(c, 5, 8, resynthesize=False)
        resyn, _ = search_min_phi(c, 5, 8, resynthesize=True)
        assert resyn < plain

    def test_unbounded_k_validation(self):
        c = and_ring(4)
        with pytest.raises(ValidationError):
            search_min_phi(c, 1, 4, False)

    def test_no_duplicate_probes(self, monkeypatch):
        """The binary search must reuse answers from the doubling phase."""
        import repro.core.driver as driver

        calls = []
        real = driver.probe_phi

        def counting(circuit, k, phi, *args, **kwargs):
            calls.append(phi)
            return real(circuit, k, phi, *args, **kwargs)

        monkeypatch.setattr(driver, "probe_phi", counting)
        c = and_ring(8)
        # upper_bound=1 is infeasible: the doubling phase answers 1 and 2,
        # then the binary search lands on 1 again — must hit the cache.
        phi, outcomes = driver.search_min_phi(c, 5, upper_bound=1, resynthesize=False)
        assert phi == 2
        assert sorted(calls) == sorted(set(calls))
        assert set(calls) == set(outcomes)


class TestSequentialOnly:
    """``workers`` survives on the mappers only as a guard."""

    @pytest.mark.parametrize("mapper", [turbomap, turbosyn])
    def test_workers_one_is_the_default_search(self, mapper):
        c = and_ring(6)
        a, b = mapper(c, 5, workers=1), mapper(c, 5)
        assert (a.phi, a.labels) == (b.phi, b.labels)

    @pytest.mark.parametrize("mapper", [turbomap, turbosyn])
    @pytest.mark.parametrize("workers", [0, 2, 4])
    def test_any_other_count_raises(self, mapper, workers):
        with pytest.raises(ValueError, match="workers must be 1"):
            mapper(and_ring(6), 5, workers=workers)


class TestRunMapper:
    def test_result_shape(self):
        c = and_ring(6)
        result = run_mapper(c, 5, algorithm="turbomap", resynthesize=False)
        assert isinstance(result, SeqMapResult)
        assert result.algorithm == "turbomap"
        assert result.mapped.n_gates == result.n_luts
        assert len(result.labels) == len(c)

    def test_total_stats_aggregates(self):
        c = and_ring(6)
        result = run_mapper(c, 5, algorithm="turbomap", resynthesize=False)
        total = result.total_stats
        assert total.flow_queries >= sum(
            o.stats.flow_queries for o in result.outcomes.values()
        ) - 1  # identical by construction

    def test_upper_bound_default_is_identity_mdr(self):
        c = xor_chain(6)
        result = run_mapper(c, 3, algorithm="turbomap", resynthesize=False)
        assert result.phi == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_deterministic(self, seed):
        c = random_seq_circuit(3, 14, seed=seed, feedback=3)
        a = run_mapper(c, 3, algorithm="turbomap", resynthesize=False)
        b = run_mapper(c, 3, algorithm="turbomap", resynthesize=False)
        assert a.phi == b.phi
        assert a.mapped.stats() == b.mapped.stats()
