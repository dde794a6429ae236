"""Cache and incremental repair: warm base replay, identical repairs."""

from repro.cache.store import OutcomeCache
from repro.core.turbomap import turbomap
from repro.incremental.fuzz import mapped_signature
from repro.incremental.session import remap
from tests.helpers import random_seq_circuit

K = 4


def _bump_pin(circuit, gate_index: int = -1) -> None:
    g = circuit.gates[gate_index]
    pin = circuit.fanins(g)[0]
    assert circuit.rewire_pin(g, 0, pin.src, pin.weight + 1)


def _edited(seed=41):
    """(pre-edit baseline run inputs, journaled edits) for one bump."""
    circuit = random_seq_circuit(4, 16, seed=seed)
    circuit.begin_journal()
    circuit.take_journal()
    return circuit


def test_warm_base_then_identical_repair(tmp_path):
    cache = OutcomeCache(tmp_path)

    # First process: map the base circuit (populates the cache).
    base = _edited()
    turbomap(base.copy(), K, cache=cache)

    # Second process (fresh instance over the same directory): the base
    # fixpoint replays from the store, then the repair proceeds on top.
    circuit = _edited()
    warm_cache = OutcomeCache(tmp_path)
    prev = turbomap(circuit, K, cache=warm_cache)
    assert prev.total_stats.flow_queries == 0  # O(verify) base replay
    assert prev.total_stats.outcome_cache_hits > 0

    _bump_pin(circuit)
    edits = circuit.take_journal()
    inc = remap(circuit, prev, edits, k=K, cache=warm_cache)

    # Reference: the same repair without any cache.
    reference_circuit = _edited()
    reference_prev = turbomap(reference_circuit, K)
    _bump_pin(reference_circuit)
    reference_edits = reference_circuit.take_journal()
    cold = remap(reference_circuit, reference_prev, reference_edits, k=K)

    assert inc.phi == cold.phi
    assert list(inc.labels) == list(cold.labels)
    assert mapped_signature(inc.mapped) == mapped_signature(cold.mapped)
    assert inc.incremental


def test_edited_circuit_never_replays_the_base_final(tmp_path):
    """The edit changes the content id: the base final must not leak
    into the post-edit search, even with the cache attached."""
    cache = OutcomeCache(tmp_path)
    circuit = _edited()
    prev = turbomap(circuit, K, cache=cache)
    _bump_pin(circuit)
    edits = circuit.take_journal()
    inc = remap(circuit, prev, edits, k=K, cache=cache)

    cold = turbomap(circuit.copy(), K)
    assert inc.phi == cold.phi
    assert mapped_signature(inc.mapped) == mapped_signature(cold.mapped)


def test_repair_outcomes_are_written_for_the_edited_circuit(tmp_path):
    cache = OutcomeCache(tmp_path)
    circuit = _edited()
    prev = turbomap(circuit, K, cache=cache)
    _bump_pin(circuit)
    edits = circuit.take_journal()
    remap(circuit, prev, edits, k=K, cache=cache)
    # Both the base and the edited circuit now hold entries: a future
    # cold map of the *edited* netlist starts warm too.
    assert cache.stats()["entries"] >= 2
