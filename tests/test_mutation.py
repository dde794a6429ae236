"""Fault injection: the verification stack must catch seeded defects.

Equivalence checkers that always answer "equivalent" are worse than none.
These tests mutate circuits — truth-table bit flips, register-count
changes — and require the checkers to notice; where a random mutation can
be benign (dead logic, unreachable rows), the probabilistic simulation
check is held to agreement with the exact unrolled oracle instead.
"""

import pytest

from repro.boolfn.truthtable import TruthTable
from repro.bench.fsm import fsm_to_circuit, random_fsm
from repro.core.turbomap import turbomap
from repro.netlist.graph import Pin, SeqCircuit
from repro.rng import default_rng
from repro.verify.bdd_equiv import combinational_equivalent
from repro.verify.equiv import (
    retiming_consistent,
    simulation_equivalent,
    unrolled_equivalent,
)
from tests.helpers import random_dag, random_seq_circuit

ONES = (1 << 64) - 1


def flip_table_bit(circuit: SeqCircuit, gate_index: int, row: int) -> SeqCircuit:
    mutant = circuit.copy(f"{circuit.name}_mut")
    g = mutant.gates[gate_index % mutant.n_gates]
    node = mutant.node(g)
    node.func = TruthTable(
        node.func.n, node.func.bits ^ (1 << (row % node.func.size))
    )
    return mutant


def bump_weight(circuit: SeqCircuit, gate_index: int) -> SeqCircuit:
    mutant = circuit.copy(f"{circuit.name}_mut")
    g = mutant.gates[gate_index % mutant.n_gates]
    pins = mutant.fanins(g)
    pins[0] = Pin(pins[0].src, pins[0].weight + 1)
    return mutant


def observable_mutant(circuit: SeqCircuit, cycles: int = 4) -> SeqCircuit:
    """A mutant the exact unrolled oracle certifies as behaviour-changing."""
    for gate_index in range(circuit.n_gates):
        for row in range(4):
            mutant = flip_table_bit(circuit, gate_index, row)
            if not unrolled_equivalent(circuit, mutant, cycles=cycles):
                return mutant
    raise AssertionError("no observable mutation found")  # pragma: no cover


class TestSimulationAgreesWithOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_flip_verdicts_match(self, seed):
        c = random_seq_circuit(3, 8, seed=seed, feedback=1)
        rng = default_rng(seed)
        mutant = flip_table_bit(
            c, int(rng.integers(0, 99)), int(rng.integers(0, 4))
        )
        oracle = unrolled_equivalent(c, mutant, cycles=4)
        sim = simulation_equivalent(c, mutant, cycles=60, warmup=0, seed=seed)
        if not oracle:
            assert not sim  # a real difference must surface
        else:
            # benign within 4 cycles: simulation may still catch a later
            # divergence, so only the reverse implication is asserted.
            pass

    def test_observable_mutant_always_detected(self):
        c = random_seq_circuit(3, 10, seed=11, feedback=2)
        mutant = observable_mutant(c)
        assert not simulation_equivalent(c, mutant, cycles=60, warmup=0, seed=1)


class TestSimulationCatchesMutants:
    @pytest.mark.parametrize("seed", range(3))
    def test_weight_bump_detected(self, seed):
        c = random_seq_circuit(4, 16, seed=seed, feedback=3)
        # Bump the PO driver's first pin: guaranteed observable timing shift
        # unless that input is redundant; require detection on any seed
        # where the oracle agrees.
        po_driver = c.fanins(c.pos[0])[0].src
        mutant = c.copy(f"{c.name}_mut")
        pins = mutant.fanins(po_driver)
        pins[0] = Pin(pins[0].src, pins[0].weight + 1)
        oracle = unrolled_equivalent(c, mutant, cycles=3)
        if not oracle:
            assert not simulation_equivalent(
                c, mutant, cycles=60, warmup=0, seed=seed
            )

    def test_reset_synchronized_mode_catches_state_mutants(self):
        fsm = random_fsm("mut", 6, 3, 2, seed=3, split_depth=2)
        c = fsm_to_circuit(fsm, with_reset=True)
        mutant = observable_mutant(c)
        assert not simulation_equivalent(
            c,
            mutant,
            cycles=80,
            warmup=20,
            sync_inputs={"rst": ONES},
            sync_cycles=8,
        )


class TestExactCheckersCatchMutants:
    def test_unrolled_detects(self):
        c = random_seq_circuit(3, 8, seed=1, feedback=1)
        mutant = observable_mutant(c)
        assert not unrolled_equivalent(c, mutant, cycles=4)

    def test_bdd_detects(self):
        c = random_dag(6, 20, seed=4)
        # flip the PO driver itself: directly observable combinationally
        po_driver = c.fanins(c.pos[0])[0].src
        mutant = c.copy("mut")
        node = mutant.node(po_driver)
        node.func = ~node.func
        assert not combinational_equivalent(c, mutant)

    def test_retiming_certificate_rejects_function_change(self):
        c = random_seq_circuit(3, 10, seed=2, feedback=2)
        r = [0] * len(c)
        mutant = flip_table_bit(c, 1, 0)
        assert retiming_consistent(c, c.copy(), r)
        assert not retiming_consistent(c, mutant, r)

    def test_retiming_certificate_rejects_wrong_lags(self):
        c = random_seq_circuit(3, 10, seed=6, feedback=2)
        from repro.retime.leiserson import feas
        from repro.retime.mdr import min_feasible_period

        phi = min_feasible_period(c)
        r = feas(c, phi, allow_pipelining=True)
        retimed = c.apply_retiming(r)
        wrong = list(r)
        wrong[c.gates[0]] += 1
        assert retiming_consistent(c, retimed, r)
        assert not retiming_consistent(c, retimed, wrong)


class TestMapperOutputsSurviveMutationHunt:
    """Meta-check: mutating a *correct* mapping must break equivalence.

    Guards against the equivalence harness being too lax (e.g. warmup so
    large that everything passes).
    """

    def test_mapped_network_mutants_detected(self):
        c = random_seq_circuit(4, 14, seed=9, feedback=3)
        tm = turbomap(c, k=4)
        assert simulation_equivalent(c, tm.mapped, cycles=60, warmup=12, seed=9)
        mutant = observable_mutant(tm.mapped)
        # Compare the mutant against the SUBJECT circuit: the pipeline's
        # own equivalence check must reject it.
        assert not simulation_equivalent(c, mutant, cycles=60, warmup=0, seed=9)