"""`remap` / `IncrementalSession`: bit-identical repair with reuse."""

import hashlib

import pytest

from repro.core.turbomap import turbomap
from repro.incremental.diff import circuit_edits
from repro.incremental.fuzz import mapped_signature
from repro.incremental.session import IncrementalSession, remap
from repro.kernel.csr import CompiledCircuit, compile_circuit
from repro.netlist.blif import read_blif, write_blif
from tests.helpers import random_seq_circuit

K = 4


def _bump_pin(circuit, gate_index: int = -1) -> None:
    """Bump a register count on a *late* gate: the upstream cone stays
    clean, so the repair has labels to reuse."""
    g = circuit.gates[gate_index]
    pin = circuit.fanins(g)[0]
    assert circuit.rewire_pin(g, 0, pin.src, pin.weight + 1)


def _kernel_fields(compiled):
    return {f: getattr(compiled, f) for f in CompiledCircuit.__slots__}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _assert_identical(inc, cold) -> None:
    assert inc.phi == cold.phi
    assert list(inc.labels) == list(cold.labels)
    assert mapped_signature(inc.mapped) == mapped_signature(cold.mapped)


class TestRemap:
    def test_remap_bit_identical_to_cold(self):
        circuit = random_seq_circuit(4, 16, seed=41)
        circuit.begin_journal()
        circuit.take_journal()
        prev = turbomap(circuit, K)
        _bump_pin(circuit)
        edits = circuit.take_journal()
        inc = remap(circuit, prev, edits, k=K)
        cold = turbomap(circuit.copy(), K)
        _assert_identical(inc, cold)
        assert inc.incremental
        stats = inc.total_stats
        assert stats.labels_reused > 0
        assert 0 < stats.dirty_nodes < len(circuit)

    def test_remap_compiles_the_edited_circuit(self):
        circuit = random_seq_circuit(4, 16, seed=42)
        circuit.begin_journal()
        circuit.take_journal()
        turbomap(circuit, K)
        compiled = circuit.compiled()
        before = _kernel_fields(compiled)
        _bump_pin(circuit)
        edits = circuit.take_journal()
        prev = turbomap(circuit.copy(), K)  # any baseline-shaped result
        remap(circuit, prev, edits, k=K)
        # The pre-edit kernel is left alone; the edited circuit runs on
        # its own compile.
        assert _kernel_fields(compiled) == before
        assert circuit.compiled() is not compiled

    def test_base_maps_the_same_after_a_remap_of_its_edit(self):
        """``turbosyn remap`` parses the base and the edited circuit
        separately, maps the base and repairs the edit.  Mapping the
        base again afterwards must reproduce its first result: the
        repair may not touch the base circuit or its kernel."""
        source = random_seq_circuit(4, 30, seed=13, name="twoparse")
        variant = source.copy()
        gate = variant.gates[len(variant.gates) // 2]
        pin = variant.fanins(gate)[0]
        assert variant.rewire_pin(gate, 0, pin.src, pin.weight + 1)
        base, _ = read_blif(write_blif(source))
        edited, _ = read_blif(write_blif(variant))
        prev = turbomap(base, K)
        inc = remap(edited, prev, circuit_edits(base, edited), k=K)
        _assert_identical(inc, turbomap(edited.copy(), K))
        again = turbomap(base, K)
        assert again.phi == prev.phi
        assert list(again.labels) == list(prev.labels)
        assert _sha(write_blif(again.mapped)) == _sha(write_blif(prev.mapped))
        assert _kernel_fields(base.compiled()) == _kernel_fields(
            compile_circuit(base)
        )

    def test_unknown_algorithm_rejected(self):
        import dataclasses

        circuit = random_seq_circuit(3, 8, seed=43)
        circuit.begin_journal()
        prev = dataclasses.replace(turbomap(circuit, K), algorithm="magic")
        _bump_pin(circuit)
        with pytest.raises(ValueError, match="cannot remap"):
            remap(circuit, prev, circuit.take_journal(), k=K)


class TestIncrementalSession:
    def test_edit_and_remap_loop(self):
        circuit = random_seq_circuit(4, 16, seed=44)
        session = IncrementalSession(circuit, k=K)
        first = session.map()
        assert not first.incremental
        for step in range(2):
            _bump_pin(circuit, gate_index=-1 - step)
            result = session.remap()
            assert result.incremental
            cold = turbomap(circuit.copy(), K)
            _assert_identical(result, cold)
            assert result.total_stats.labels_reused > 0

    def test_remap_without_baseline_runs_cold(self):
        circuit = random_seq_circuit(3, 10, seed=45)
        session = IncrementalSession(circuit, k=K)
        result = session.remap()
        assert not result.incremental
        assert session.result is result

    def test_node_insertion_pads_previous_labels(self):
        from repro.boolfn.truthtable import TruthTable

        circuit = random_seq_circuit(4, 16, seed=46)
        session = IncrementalSession(circuit, k=K)
        session.map()
        g = circuit.gates[-1]
        circuit.add_gate("grown", TruthTable.var(0, 1), [(g, 1)])
        circuit.add_po("grown_out", circuit.id_of("grown"))
        result = session.remap()
        cold = turbomap(circuit.copy(), K)
        _assert_identical(result, cold)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            IncrementalSession(
                random_seq_circuit(3, 8, seed=47), algorithm="magic"
            )
