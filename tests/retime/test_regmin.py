"""Tests for register minimization after retiming."""

import pytest

from repro.core.turbomap import turbomap
from repro.netlist.graph import SeqCircuit
from repro.retime.leiserson import feas
from repro.retime.mdr import min_feasible_period
from repro.retime.regmin import minimize_registers, shared_register_cost
from repro.verify.equiv import simulation_equivalent
from tests.helpers import AND2, BUF, minimize_registers_exact, random_seq_circuit


def padded_chain():
    """x -> g0 -> g1 -> g2 -> PO with 2 FFs wastefully split."""
    c = SeqCircuit("padded")
    x = c.add_pi("x")
    g0 = c.add_gate("g0", BUF, [(x, 1)])
    g1 = c.add_gate("g1", BUF, [(g0, 1)])
    g2 = c.add_gate("g2", BUF, [(g1, 1)])
    c.add_po("y", g2, 1)
    return c


class TestSharedRegisterCost:
    def test_counts_max_per_driver(self):
        c = SeqCircuit()
        a = c.add_pi("a")
        g1 = c.add_gate("g1", BUF, [(a, 2)])
        g2 = c.add_gate("g2", AND2, [(a, 3), (g1, 0)])
        c.add_po("o", g2)
        # driver a: max(2, 3) = 3; g1, g2: 0
        assert shared_register_cost(c, [0] * len(c)) == 3

    def test_matches_circuit_n_ffs(self):
        for seed in range(3):
            c = random_seq_circuit(3, 12, seed=seed, feedback=3)
            assert shared_register_cost(c, [0] * len(c)) == c.n_ffs


class TestMinimizeRegisters:
    def test_cost_never_increases(self):
        for seed in range(4):
            c = random_seq_circuit(3, 14, seed=seed, feedback=3)
            phi = min_feasible_period(c)
            r0 = feas(c, phi, allow_pipelining=True)
            before = shared_register_cost(c, r0)
            result = minimize_registers(c, phi, r0)
            assert shared_register_cost(c, result.r) <= before
            assert result.period <= phi

    def test_wasteful_chain_compacts(self):
        c = padded_chain()
        # period 4 is achievable with a single register level.
        result = minimize_registers(c, phi=4)
        assert result.circuit.n_ffs < c.n_ffs
        assert result.period <= 4

    def test_equivalence_preserved(self):
        c = random_seq_circuit(3, 12, seed=7, feedback=2)
        phi = min_feasible_period(c)
        result = minimize_registers(c, phi)
        assert simulation_equivalent(
            c, result.circuit, cycles=60, warmup=16, po_lags=result.po_lags
        )

    def test_infeasible_phi_rejected(self):
        c = padded_chain()
        # MDR bound of an acyclic circuit is 1, so phi=1 IS feasible with
        # pipelining; force infeasibility with a loop instead.
        loop = SeqCircuit("loop")
        x = loop.add_pi("x")
        g = loop.add_gate_placeholder("g", AND2)
        h = loop.add_gate("h", BUF, [(g, 0)])
        loop.set_fanins(g, [(x, 0), (h, 1)])
        loop.add_po("o", h)
        with pytest.raises(ValueError):
            minimize_registers(loop, phi=1)

    def test_exact_total_weight_optimum(self):
        # exact LP needs numpy + scipy; a broken numpy surfaces as a
        # bare ImportError from inside scipy, so treat that as a skip too
        pytest.importorskip("scipy.optimize", exc_type=ImportError)
        c = padded_chain()
        # period 4 admits a single register level: total edge weight 1
        # (plus whatever the PO pipelining keeps) is the LP optimum.
        exact = minimize_registers_exact(c, phi=4)
        assert exact.period <= 4
        heur = minimize_registers(c, phi=4)
        assert exact.circuit.total_edge_weight <= heur.circuit.total_edge_weight

    def test_exact_never_worse_than_heuristic(self):
        # exact LP needs numpy + scipy; a broken numpy surfaces as a
        # bare ImportError from inside scipy, so treat that as a skip too
        pytest.importorskip("scipy.optimize", exc_type=ImportError)
        for seed in range(4):
            c = random_seq_circuit(3, 14, seed=seed, feedback=3)
            phi = min_feasible_period(c)
            exact = minimize_registers_exact(c, phi)
            heur = minimize_registers(c, phi)
            assert exact.period <= phi
            assert (
                exact.circuit.total_edge_weight
                <= heur.circuit.total_edge_weight
            )

    def test_exact_strict_mode(self):
        # exact LP needs numpy + scipy; a broken numpy surfaces as a
        # bare ImportError from inside scipy, so treat that as a skip too
        pytest.importorskip("scipy.optimize", exc_type=ImportError)
        c = padded_chain()
        strict = minimize_registers_exact(c, phi=4, pipelined=False)
        assert strict.period <= 4
        assert strict.po_lags == {"y": 0}
        # register conservation on I/O paths: total weight unchanged
        assert strict.circuit.total_edge_weight == c.total_edge_weight

    def test_exact_infeasible_rejected(self):
        # exact LP needs numpy + scipy; a broken numpy surfaces as a
        # bare ImportError from inside scipy, so treat that as a skip too
        pytest.importorskip("scipy.optimize", exc_type=ImportError)
        loop = SeqCircuit("loop")
        x = loop.add_pi("x")
        g = loop.add_gate_placeholder("g", AND2)
        h = loop.add_gate("h", BUF, [(g, 0)])
        loop.set_fanins(g, [(x, 0), (h, 1)])
        loop.add_po("o", h)
        with pytest.raises(ValueError):
            minimize_registers_exact(loop, phi=1)

    def test_after_mapping(self):
        c = random_seq_circuit(3, 16, seed=5, feedback=3)
        tm = turbomap(c, k=4)
        r0 = feas(tm.mapped, tm.phi, allow_pipelining=True)
        assert r0 is not None
        start_cost = shared_register_cost(tm.mapped, r0)
        result = minimize_registers(tm.mapped, tm.phi, r0)
        assert result.period <= tm.phi
        assert shared_register_cost(tm.mapped, result.r) <= start_cost
