"""Tests for the FSM benchmark generator and its synthesis paths."""

import pytest

from repro.bench.fsm import (
    _disjoint_cubes,
    encode_fsm,
    fsm_to_circuit,
    fsm_to_circuit_encoded,
    random_fsm,
    simulate_fsm_circuit,
)
from repro.netlist.kiss import write_kiss, read_kiss
from repro.rng import default_rng



class TestDisjointCubes:
    @pytest.mark.parametrize("seed", range(5))
    def test_partition_is_disjoint_and_complete(self, seed):
        rng = default_rng(seed)
        n = 5
        cubes = _disjoint_cubes(n, depth=3, rng=rng)
        covered = [0] * (1 << n)
        for cube in cubes:
            for m in range(1 << n):
                if all(
                    ch == "-" or int(ch) == ((m >> i) & 1)
                    for i, ch in enumerate(cube)
                ):
                    covered[m] += 1
        assert all(c == 1 for c in covered)


class TestRandomFsm:
    def test_deterministic(self):
        a = random_fsm("m", 8, 4, 3, seed=5)
        b = random_fsm("m", 8, 4, 3, seed=5)
        assert a.transitions == b.transitions

    def test_profile_respected(self):
        fsm = random_fsm("m", 12, 5, 4, seed=1)
        assert fsm.num_states == 12
        assert fsm.num_inputs == 5
        assert fsm.num_outputs == 4
        assert fsm.reset_state == "s0"

    def test_strongly_connected_ring(self):
        fsm = random_fsm("m", 6, 3, 2, seed=2)
        # the ring transition guarantees every state reaches every other
        reachable = {fsm.reset_state}
        frontier = [fsm.reset_state]
        while frontier:
            s = frontier.pop()
            for t in fsm.transitions:
                if t.state == s and t.next_state not in reachable:
                    reachable.add(t.next_state)
                    frontier.append(t.next_state)
        assert reachable == set(fsm.states)

    def test_kiss_roundtrip(self):
        fsm = random_fsm("m", 6, 3, 2, seed=3)
        again = read_kiss(write_kiss(fsm))
        assert again.transitions == fsm.transitions

    def test_too_few_states(self):
        with pytest.raises(ValueError):
            random_fsm("m", 1, 2, 1, seed=0)


class TestStructuralSynthesis:
    @pytest.mark.parametrize("seed", range(4))
    def test_oracle(self, seed):
        fsm = random_fsm("m", 9, 4, 3, seed=seed)
        circuit = fsm_to_circuit(fsm)
        assert simulate_fsm_circuit(fsm, circuit, steps=80, seed=seed + 100)

    def test_two_bounded(self):
        fsm = random_fsm("m", 8, 4, 2, seed=1)
        circuit = fsm_to_circuit(fsm)
        assert circuit.is_k_bounded(2)

    def test_one_ff_per_state(self):
        fsm = random_fsm("m", 11, 3, 2, seed=1)
        circuit = fsm_to_circuit(fsm)
        assert circuit.n_ffs == 11

    def test_loops_through_registers(self):
        fsm = random_fsm("m", 5, 3, 2, seed=1)
        circuit = fsm_to_circuit(fsm)
        circuit.check()  # no combinational cycles
        sccs = [comp for comp in circuit.sccs() if len(comp) > 1]
        assert sccs  # the state machine is a real loop

    def test_with_reset_oracle(self):
        fsm = random_fsm("m", 7, 3, 2, seed=4)
        circuit = fsm_to_circuit(fsm, with_reset=True)
        assert "rst" in circuit
        assert simulate_fsm_circuit(fsm, circuit, steps=80, seed=5)

    def test_reset_synchronizes_any_state(self):
        from repro.verify.simulate import Simulator

        fsm = random_fsm("m", 6, 3, 2, seed=6)
        circuit = fsm_to_circuit(fsm, with_reset=True)
        rst = circuit.id_of("rst")
        pis = {circuit.id_of(f"in{i}"): 0 for i in range(3)}
        # Scramble the state with random inputs, then assert reset: the
        # machine must return to the reset-state signature.
        sim_a = Simulator(circuit, lanes=1)
        sim_b = Simulator(circuit, lanes=1)
        rng = default_rng(9)
        for _ in range(17):  # odd count: the two runs de-phase
            sim_a.step({**{p: int(rng.integers(0, 2)) for p in pis}, rst: 0})
        for _ in range(8):
            sim_b.step({**{p: int(rng.integers(0, 2)) for p in pis}, rst: 0})
        for _ in range(4):
            sim_a.step({**pis, rst: 1})
            sim_b.step({**pis, rst: 1})
        # Identical post-reset stimulus -> identical outputs.
        for t in range(30):
            frame = {p: int(rng.integers(0, 2)) for p in pis}
            out_a = sim_a.step({**frame, rst: 0})
            out_b = sim_b.step({**frame, rst: 0})
            assert out_a == out_b


class TestEncodedSynthesis:
    def test_tables_match_step(self):
        fsm = random_fsm("m", 4, 2, 2, seed=7)
        ns, outs, bits = encode_fsm(fsm, "binary")
        assert bits == 2
        states = fsm.states
        for code, state in enumerate(states):
            for input_bits in range(4):
                row = input_bits | (code << 2)
                nxt, output = fsm.step(state, input_bits)
                expect_code = states.index(nxt)
                got_code = sum(ns[j].value(row) << j for j in range(bits))
                assert got_code == expect_code
                for m in range(2):
                    assert outs[m].value(row) == (1 if output[m] == "1" else 0)

    @pytest.mark.parametrize("encoding", ["binary", "onehot"])
    def test_oracle(self, encoding):
        fsm = random_fsm("m", 5, 3, 2, seed=9)
        circuit = fsm_to_circuit_encoded(fsm, encoding=encoding)
        assert simulate_fsm_circuit(fsm, circuit, steps=60, seed=1)

    def test_width_guard(self):
        fsm = random_fsm("m", 40, 8, 2, seed=1)
        with pytest.raises(ValueError):
            encode_fsm(fsm, "onehot")

    def test_bad_encoding(self):
        fsm = random_fsm("m", 4, 2, 1, seed=1)
        with pytest.raises(ValueError):
            encode_fsm(fsm, "gray")

    def test_structural_and_encoded_agree(self):
        fsm = random_fsm("m", 5, 3, 2, seed=11)
        a = fsm_to_circuit(fsm)
        b = fsm_to_circuit_encoded(fsm, "binary")
        assert simulate_fsm_circuit(fsm, a, steps=60, seed=3)
        assert simulate_fsm_circuit(fsm, b, steps=60, seed=3)
