"""Content-addressed store: dedup, one canonical BLIF per circuit."""

import os

import pytest

from repro.kernel.csr import CompiledCircuit, compile_circuit
from repro.netlist.blif import read_blif, write_blif
from repro.resilience import faultinject
from repro.resilience.faultinject import Fault, FaultPlan, InjectedFault
from repro.serve.store import CircuitStore, StoreError


@pytest.fixture()
def store(tmp_path) -> CircuitStore:
    return CircuitStore(str(tmp_path / "store"))


class TestDedup:
    def test_same_text_same_id(self, store, quick_blif):
        assert store.put(quick_blif) == store.put(quick_blif)
        assert len(store.circuit_ids()) == 1

    def test_formatting_differences_dedup(self, store, quick_blif):
        # The address covers the canonical netlist, not its formatting:
        # extra comments and blank lines hash to the same circuit.
        noisy = "# a comment\n\n" + quick_blif.replace("\n", "\n\n")
        assert store.put(noisy) == store.put(quick_blif)

    def test_different_circuits_get_different_ids(
        self, store, quick_blif, other_blif
    ):
        assert store.put(quick_blif) != store.put(other_blif)

    def test_accepts_parsed_circuits_identically(self, store, quick_blif):
        circuit, _ = read_blif(quick_blif)
        assert store.put(circuit) == store.put(quick_blif)


class TestLoad:
    def test_round_trip_kernel_equals_a_fresh_compile(self, store, quick_blif):
        circuit_id = store.put(quick_blif)
        circuit = store.load(circuit_id)
        original, _ = read_blif(quick_blif)
        assert write_blif(circuit) == write_blif(original)
        fresh = compile_circuit(original)
        compiled = circuit.compiled()
        for field in CompiledCircuit.__slots__:
            assert getattr(compiled, field) == getattr(fresh, field), field

    def test_put_writes_only_the_canonical_blif(self, store, quick_blif):
        circuit_id = store.put(quick_blif)
        assert os.listdir(store.root) == [f"{circuit_id}.blif"]

    def test_unknown_id_raises_store_error(self, store):
        with pytest.raises(StoreError):
            store.load("deadbeef" * 8)


class TestFaultSite:
    def test_store_put_fires_after_the_blif_is_durable(self, store, quick_blif):
        faultinject.install(
            FaultPlan([Fault("store-put", "raise")])
        )
        with pytest.raises(InjectedFault):
            store.put(quick_blif)
        faultinject.clear()
        # Crash window semantics: the entry is complete (the canonical
        # BLIF is durable), only the caller's acknowledgement was lost.
        (circuit_id,) = store.circuit_ids()
        assert write_blif(store.load(circuit_id)) == write_blif(
            read_blif(quick_blif)[0]
        )
        # Re-putting after the crash dedups onto the existing entry.
        assert store.put(quick_blif) == circuit_id
