"""Cold-vs-warm differential: the cache must change time, not answers.

For every circuit in the quick suite, a warm rerun against the cache
populated by the cold run must produce bit-identical phi, labels, and
mapped BLIF — while performing *zero* label-fixpoint probes (the
acceptance bar for the persistent cache) — and a cache-less run must be
bit-identical to the cold one (the cache is invisible when absent).
"""

import pytest

from repro.bench.suite import build, quick_subset
from repro.cache.store import OutcomeCache
from repro.core.turbomap import turbomap
from repro.core.turbosyn import turbosyn
from repro.netlist.blif import write_blif
from tests.helpers import random_seq_circuit


def fingerprint(result):
    return (result.phi, list(result.labels), write_blif(result.mapped))


@pytest.mark.parametrize("name", quick_subset())
def test_turbomap_warm_rerun_is_bit_identical(tmp_path, name):
    circuit = build(name)
    cache = OutcomeCache(tmp_path)

    cold = turbomap(circuit.copy(), 4, cache=cache)
    bare = turbomap(circuit.copy(), 4)
    warm = turbomap(circuit.copy(), 4, cache=cache)

    assert fingerprint(bare) == fingerprint(cold)  # cache-less == cold
    assert fingerprint(warm) == fingerprint(cold)  # warm == cold

    cold_stats = cold.total_stats
    warm_stats = warm.total_stats
    assert cold_stats.outcome_cache_hits == 0
    # The whole point: a warm rerun re-verifies but never re-searches.
    assert warm_stats.flow_queries == 0
    assert warm_stats.outcome_cache_hits > 0
    assert warm_stats.cache_probes_skipped > 0


@pytest.mark.parametrize("seed", [3, 9])
def test_turbosyn_warm_rerun_is_bit_identical(tmp_path, seed):
    circuit = random_seq_circuit(4, 26, seed=seed)
    cache = OutcomeCache(tmp_path)

    cold = turbosyn(circuit.copy(), 4, cache=cache)
    warm = turbosyn(circuit.copy(), 4, cache=cache)

    assert fingerprint(warm) == fingerprint(cold)
    assert warm.total_stats.flow_queries == 0
    assert warm.total_stats.outcome_cache_hits > 0


def test_partial_cache_still_prunes(tmp_path):
    """A cache with probe verdicts but no final still prunes the
    search: the warm run retraces the cold trajectory on cached
    verdicts and runs no fresh probe at all."""
    circuit = build("bbara")
    cache = OutcomeCache(tmp_path)
    cold = turbomap(circuit.copy(), 4, cache=cache)

    # Drop the final so only per-phi verdicts remain.
    from repro.cache.store import cache_key

    key = cache_key(circuit, 4, False)
    import json

    path = cache._entry_path(key)
    entry = json.load(open(path))
    entry["final"] = None
    from repro.cache.store import entry_checksum

    entry["checksum"] = entry_checksum(entry)
    with open(path, "w") as fh:
        json.dump(entry, fh, sort_keys=True, separators=(",", ":"))

    warm_cache = OutcomeCache(tmp_path)
    warm = turbomap(circuit.copy(), 4, cache=warm_cache)
    assert fingerprint(warm) == fingerprint(cold)
    assert warm_cache.final_hits == 0  # no replay: the search ran
    assert cold.total_stats.flow_queries > 0
    assert warm.total_stats.flow_queries == 0
    assert warm.total_stats.outcome_cache_hits == len(warm.outcomes)
