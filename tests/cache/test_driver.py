"""Driver-level cache behavior: replay, floors, and finalization gates."""

import hashlib

import pytest

from repro.cache.store import OutcomeCache, cache_key
from repro.core.labels import LabelOutcome, LabelStats
from repro.core.turbomap import turbomap
from repro.netlist.blif import write_blif
from repro.resilience.budget import Budget


@pytest.fixture()
def circuit():
    # A suite circuit with phi > 1 so searches actually bisect and the
    # minimality witness at phi - 1 exists.
    from repro.bench.suite import build

    return build("dk16")


def test_exact_hit_replays_without_searching(tmp_path, circuit):
    cache = OutcomeCache(tmp_path)
    cold = turbomap(circuit.copy(), 4, cache=cache)
    assert len(cold.outcomes) > 2  # the search actually probed

    warm = turbomap(circuit.copy(), 4, cache=cache)
    # Replay adopts exactly the optimum and its minimality witness;
    # no probe beyond those two ever runs.
    expected = {warm.phi} | ({warm.phi - 1} if warm.phi > 1 else set())
    assert set(warm.outcomes) == expected
    assert warm.phi == cold.phi
    assert warm.total_stats.flow_queries == 0
    assert cache.final_hits >= 1


def test_replay_requires_check(tmp_path, circuit):
    cache = OutcomeCache(tmp_path)
    cold = turbomap(circuit.copy(), 4, cache=cache)

    warm_cache = OutcomeCache(tmp_path)
    unchecked = turbomap(circuit.copy(), 4, check=False, cache=warm_cache)
    # Without the verifier the exact hit must not engage: the search
    # runs (still fed by probe adoption and the verified floor), and
    # the recorded final is never consulted.
    assert warm_cache.final_hits == 0
    assert unchecked.phi == cold.phi
    assert unchecked.total_stats.outcome_cache_hits > 0


def test_verified_floor_prunes_the_lower_half(tmp_path, circuit):
    cold = turbomap(circuit.copy(), 4)
    opt = cold.phi
    assert opt > 1

    cache = OutcomeCache(tmp_path)
    key = cache_key(circuit, 4, False)
    # Seed only the infeasible fact at opt - 1 (no final, no feasible
    # entries): the floor alone must keep the search out of [1, opt-1].
    cache.put_outcome(
        key,
        opt - 1,
        LabelOutcome(
            feasible=False,
            labels=[0] * len(circuit),
            stats=LabelStats(),
        ),
    )
    warm = turbomap(circuit.copy(), 4, cache=OutcomeCache(tmp_path))
    assert warm.phi == opt
    assert write_blif(warm.mapped) == write_blif(cold.mapped)
    fresh_probes = [
        phi
        for phi, out in warm.outcomes.items()
        if out.stats.outcome_cache_hits == 0
    ]
    assert all(phi >= opt for phi in fresh_probes)


def test_verified_floor_answers_midpoints_below_it(tmp_path):
    """A cold search of cse at K=4 probes phi 4, below opt - 1 = 5; with
    only the infeasible verdict at 5 cached, the floor answers both
    without a probe or a cache read."""
    from repro.bench.suite import build

    cold = turbomap(build("cse"), 4)
    opt = cold.phi
    assert any(phi < opt - 1 for phi in cold.outcomes)

    cache = OutcomeCache(tmp_path)
    cache.put_outcome(
        cache_key(build("cse"), 4, False),
        opt - 1,
        LabelOutcome(feasible=False, labels=[], stats=LabelStats()),
    )
    warm = turbomap(build("cse"), 4, cache=cache)
    assert warm.phi == opt
    assert all(phi >= opt for phi in warm.outcomes)


def test_edited_circuit_never_replays_the_base_final(tmp_path, circuit):
    """An edit changes the content id: mapping the edited copy against
    a cache that holds the base final replays no final and answers
    exactly like a cache-less run."""
    cache = OutcomeCache(tmp_path)
    turbomap(circuit, 4, cache=cache)
    edited = circuit.copy()
    g = edited.gates[-1]
    pins = [(p.src, p.weight) for p in edited.fanins(g)]
    pins[0] = (pins[0][0], pins[0][1] + 1)
    edited.set_fanins(g, pins)

    warm = turbomap(edited, 4, cache=cache)
    cold = turbomap(edited.copy(), 4)
    assert cache.final_hits == 0
    assert warm.phi == cold.phi
    assert list(warm.labels) == list(cold.labels)

    def sha(result):
        return hashlib.sha256(write_blif(result.mapped).encode()).hexdigest()

    assert sha(warm) == sha(cold)


def test_degraded_runs_never_finalize(tmp_path, circuit):
    from repro.resilience.budget import BudgetExhausted

    def expiring_clock(ticks):
        # 0.0 for the first `ticks` consultations, then far past the
        # deadline: expiry lands at a deterministic point mid-search.
        state = {"n": 0}

        def clock():
            state["n"] += 1
            return 0.0 if state["n"] <= ticks else 1e9

        return clock

    cache = OutcomeCache(tmp_path)
    result = None
    for ticks in range(1, 200):
        cache.clear()
        budget = Budget(deadline=1.0, clock=expiring_clock(ticks))
        try:
            candidate = turbomap(
                circuit.copy(), 4, cache=cache, budget=budget
            )
        except BudgetExhausted:
            continue  # expired before the first feasible probe
        if candidate.degraded:
            result = candidate
            break
    assert result is not None, "no tick count produced a degraded run"
    # A degraded phi is only an upper bound on the optimum: caching it
    # as *the* answer would poison every future exact hit.
    assert cache.get_final(cache_key(circuit, 4, False)) is None

    # The verdicts the degraded run *did* prove are still written
    # through and still help, but no replay happens.
    warm = turbomap(circuit.copy(), 4, cache=cache)
    assert not warm.degraded
    cold = turbomap(circuit.copy(), 4)
    assert warm.phi == cold.phi


def test_bound_stage_after_turbomap_runs_no_fresh_probe(tmp_path, monkeypatch):
    """TurboSYN's TurboMap bound, run after a TurboMap job of the same
    circuit, answers every probe from the cache: the search keeps the
    cold trajectory, and the verified floor answers the midpoints below
    it instead of shifting them onto phis no run has probed."""
    from repro.core import driver
    from repro.core.turbosyn import turbosyn
    from repro.netlist.blif import read_blif
    from repro.serve.chaos import demo_blif

    source = demo_blif(60, seed=5)
    cold = turbosyn(read_blif(source)[0], 4)
    cache = OutcomeCache(tmp_path)
    turbomap(read_blif(source)[0], 4, cache=cache)

    fresh = []
    real_probe = driver.probe_phi

    def counting_probe(circuit, k, phi, resynthesize, *args, **kwargs):
        fresh.append((phi, resynthesize))
        return real_probe(circuit, k, phi, resynthesize, *args, **kwargs)

    monkeypatch.setattr(driver, "probe_phi", counting_probe)
    warm = turbosyn(read_blif(source)[0], 4, cache=cache)
    assert [phi for phi, resyn in fresh if not resyn] == []
    assert any(resyn for _phi, resyn in fresh)  # the main stage is cold
    assert warm.phi == cold.phi
    assert write_blif(warm.mapped) == write_blif(cold.mapped)


def test_replay_skips_the_upper_bound(tmp_path, circuit, monkeypatch):
    """Only the search reads the default bound (an exact MDR of the
    input): an exact-hit replay never computes it, and the cold search a
    poisoned replay falls back to computes it once."""
    import json

    from repro.cache.store import entry_checksum
    from repro.core import driver

    cache = OutcomeCache(tmp_path)
    cold = turbomap(circuit.copy(), 4, cache=cache)
    bounds = []
    real_bound = driver.default_upper_bound

    def counting_bound(c):
        bounds.append(c.name)
        return real_bound(c)

    monkeypatch.setattr(driver, "default_upper_bound", counting_bound)
    warm = turbomap(circuit.copy(), 4, cache=OutcomeCache(tmp_path))
    assert bounds == []
    assert warm.phi == cold.phi
    assert write_blif(warm.mapped) == write_blif(cold.mapped)

    path = cache._entry_path(cache_key(circuit, 4, False))
    with open(path, encoding="utf-8") as fh:
        entry = json.load(fh)
    entry["final"]["signature"] = "0" * 64  # poison, correctly signed
    entry["checksum"] = entry_checksum(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, sort_keys=True, separators=(",", ":"))
    healed = turbomap(circuit.copy(), 4, cache=OutcomeCache(tmp_path))
    assert bounds == [circuit.name]
    assert write_blif(healed.mapped) == write_blif(cold.mapped)
