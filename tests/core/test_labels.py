"""Tests for the iterative label computation (TurboMap core)."""

import pickle

import pytest

from repro.core.labels import LabelSolver
from repro.netlist.graph import SeqCircuit
from tests.helpers import AND2, BUF, random_seq_circuit, xor_chain


def buffer_ring(num_gates, num_ffs):
    c = SeqCircuit("ring")
    g = [c.add_gate_placeholder(f"g{i}", BUF) for i in range(num_gates)]
    for i in range(num_gates):
        c.set_fanins(g[i], [(g[(i - 1) % num_gates], num_ffs if i == 0 else 0)])
    c.add_po("o", g[-1])
    c.check()
    return c


def and_ring(num_gates, num_ffs):
    """Ring of AND2 gates, each consuming a distinct PI.

    Unlike a buffer ring (which collapses into a single self-loop LUT),
    the external inputs make cut width grow with the covered gate count:
    a K-LUT covers at most K-1 ring gates, so without resynthesis
    ``phi_min = ceil(ceil(n / (K-1)) / num_ffs)``.
    """
    c = SeqCircuit("andring")
    xs = [c.add_pi(f"x{i}") for i in range(num_gates)]
    g = [c.add_gate_placeholder(f"g{i}", AND2) for i in range(num_gates)]
    for i in range(num_gates):
        w = num_ffs if i == 0 else 0
        c.set_fanins(g[i], [(g[(i - 1) % num_gates], w), (xs[i], 0)])
    c.add_po("o", g[-1])
    c.check()
    return c


class TestFeasibility:
    def test_acyclic_always_feasible_at_one(self):
        c = xor_chain(8)
        outcome = LabelSolver(c, k=3, phi=1).run()
        assert outcome.feasible

    def test_buffer_ring_collapses_to_one_lut(self):
        # Replication + retiming absorb the whole buffer loop into one
        # self-loop LUT: always feasible at phi = 1.
        for gates, ffs in [(4, 2), (8, 1), (9, 3)]:
            c = buffer_ring(gates, ffs)
            assert LabelSolver(c, k=2, phi=1).run().feasible

    def test_and_ring_infeasible_below_limit(self):
        # 8 AND gates, 1 FF, K=3: at most 2 ring gates/LUT -> >= 4 LUTs
        # on the loop over 1 register: phi >= 4.
        c = and_ring(8, 1)
        assert not LabelSolver(c, k=3, phi=3).run().feasible
        assert LabelSolver(c, k=3, phi=4).run().feasible

    def test_failed_scc_reported(self):
        c = and_ring(8, 1)
        outcome = LabelSolver(c, k=3, phi=1).run()
        assert not outcome.feasible
        assert len(outcome.failed_scc) == 8

    def test_monotone_in_phi(self):
        for seed in range(4):
            c = random_seq_circuit(3, 14, seed=seed)
            feasible = [
                LabelSolver(c, k=3, phi=phi).run().feasible
                for phi in range(1, 7)
            ]
            # once feasible, stays feasible
            assert feasible == sorted(feasible)

    def test_phi_validation(self):
        with pytest.raises(ValueError):
            LabelSolver(xor_chain(3), k=3, phi=0)


class TestLabelValues:
    def test_pi_labels_zero(self):
        c = xor_chain(5)
        outcome = LabelSolver(c, k=3, phi=1).run()
        for pi in c.pis:
            assert outcome.labels[pi] == 0

    def test_gate_labels_at_least_one(self):
        c = random_seq_circuit(3, 12, seed=7)
        outcome = LabelSolver(c, k=3, phi=2).run()
        assert outcome.feasible
        for g in c.gates:
            assert outcome.labels[g] >= 1

    def test_combinational_labels_match_flowmap(self):
        # On a purely combinational circuit with phi large, sequential
        # labels coincide with FlowMap depth labels.
        from repro.comb.flowmap import compute_labels

        c = xor_chain(9)
        fm_labels, _ = compute_labels(c, k=3)
        outcome = LabelSolver(c, k=3, phi=50).run()
        for g in c.gates:
            assert outcome.labels[g] == fm_labels[g]


class TestPldAgainstIterationBound:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_verdict_feasible_and_infeasible(self, seed):
        c = random_seq_circuit(3, 16, seed=seed)
        for phi in (1, 2, 3):
            with_pld = LabelSolver(c, k=2, phi=phi, pld=True).run()
            without = LabelSolver(c, k=2, phi=phi, pld=False).run()
            assert with_pld.feasible == without.feasible, (seed, phi)

    def test_pld_uses_fewer_rounds_on_infeasible(self):
        c = and_ring(12, 1)
        with_pld = LabelSolver(c, k=3, phi=2, pld=True).run()
        without = LabelSolver(c, k=3, phi=2, pld=False).run()
        assert not with_pld.feasible and not without.feasible
        assert with_pld.stats.rounds < without.stats.rounds

    def test_verdicts_match_and_ring_bound(self):
        # A K-LUT covers at most K-1 ring gates of an AND ring, so the
        # structural optimum is ceil(ceil(n/(K-1)) / W).
        import math

        for num_gates, num_ffs, k in [(6, 2, 3), (6, 3, 4), (9, 2, 4)]:
            c = and_ring(num_gates, num_ffs)
            best_luts = math.ceil(num_gates / (k - 1))
            best_phi = math.ceil(best_luts / num_ffs)
            assert LabelSolver(c, k=k, phi=best_phi).run().feasible, (
                num_gates,
                num_ffs,
                k,
            )
            if best_phi > 1:
                assert not LabelSolver(c, k=k, phi=best_phi - 1).run().feasible


class TestCaching:
    def test_flow_queries_recorded(self):
        c = and_ring(10, 2)
        outcome = LabelSolver(c, k=3, phi=3).run()
        assert outcome.feasible
        assert outcome.stats.flow_queries > 0


def _and_chain(num_gates):
    """PI-fed chain of AND2 gates: acyclic until a test rewires it."""
    c = SeqCircuit("andchain")
    xs = [c.add_pi(f"x{i}") for i in range(num_gates + 1)]
    prev = xs[0]
    gates = []
    for i in range(num_gates):
        prev = c.add_gate(f"g{i}", AND2, [(prev, 0), (xs[i + 1], 0)])
        gates.append(prev)
    c.add_po("o", prev)
    return c, xs, gates


class TestScheduleCache:
    """The SCC schedule is cached on the circuit; edits must reset it."""

    def _assert_like_fresh(self, c, k=3):
        for phi in (1, 2, 3, 4):
            got = LabelSolver(c, k=k, phi=phi).run()
            want = LabelSolver(c.copy(), k=k, phi=phi).run()
            assert got.feasible == want.feasible, phi
            assert got.labels == want.labels, phi
            assert got.failed_scc == want.failed_scc, phi

    def test_rewiring_between_probes_follows_the_structure(self):
        c, xs, g = _and_chain(8)
        self._assert_like_fresh(c)
        assert all(isinstance(item, int) for item in c.scc_schedule().sccs)
        # Close a registered loop g7 -> g0: one cyclic SCC appears, and
        # at phi 1-3 it is a positive loop.
        assert c.rewire_pin(g[0], 0, g[-1], 1)
        self._assert_like_fresh(c)
        assert [len(item) for item in c.scc_schedule().sccs] == [8]
        assert not LabelSolver(c, k=3, phi=3).run().feasible
        # Break it again by rewiring the middle of the loop to a PI.
        c.set_fanins(g[4], [(xs[0], 0), (xs[5], 0)])
        self._assert_like_fresh(c)
        assert all(isinstance(item, int) for item in c.scc_schedule().sccs)
        assert LabelSolver(c, k=3, phi=1).run().feasible

    def test_self_loop_is_a_cyclic_singleton(self):
        c, _xs, g = _and_chain(3)
        c.rewire_pin(g[1], 0, g[1], 1)
        sccs = c.scc_schedule().sccs
        assert [g[1]] in sccs and g[0] in sccs and g[2] in sccs
        self._assert_like_fresh(c)

    def test_pickles_carry_no_schedule(self):
        c, _xs, _g = _and_chain(4)
        schedule = c.scc_schedule()
        assert c.scc_schedule() is schedule  # cached
        clone = pickle.loads(pickle.dumps(c))
        assert clone._schedule is None
        assert clone.scc_schedule().sccs == schedule.sccs
