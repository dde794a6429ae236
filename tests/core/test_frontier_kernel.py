"""The depth-0 label kernel against the general expansion route.

At ``extra_depth=0`` :class:`LabelSolver` answers a memo miss from one
frontier walk (:meth:`LabelSolver._walk_frontier`) that builds the memo
guard as it goes, with no :class:`~repro.kernel.expand.PackedExpansion`.
``tests/helpers.ExpansionLabelSolver`` keeps the route it replaced (the
whole partial expansion, :func:`cut_on_packed`, a second pass for the
guard, an exact cone index).  The two must agree query by query — leaf
set, blocked flag and guard — and search by search, in every verdict,
label and integer counter.
"""

import dataclasses

import pytest

import repro.core.kcut as kcut
import repro.core.labels as labels_mod
import repro.kernel.expand as kexpand
from repro.analysis import sanitize
from repro.bench import suite as bench_suite
from repro.core import driver
from repro.core.labels import LabelSolver
from repro.core.turbomap import turbomap
from repro.kernel.expand import cut_on_packed, expand_partial_packed
from repro.rng import default_rng
from tests.helpers import ExpansionLabelSolver, random_seq_circuit, relabel

K = 4

#: Seed 0 is the suite as built; a nonzero seed relabels every circuit.
SEEDS = (0, 7)


def _circuit(name, seed):
    circuit = bench_suite.build(name)
    return circuit if seed == 0 else relabel(circuit, seed)


def _int_counters(stats):
    return {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if isinstance(getattr(stats, f.name), int)
    }


def _search(monkeypatch, solver_cls, circuit, upper, resynthesize):
    with monkeypatch.context() as patch:
        # probe_phi builds its solver from the driver module's name.
        patch.setattr(driver, "LabelSolver", solver_cls)
        return driver.search_min_phi(circuit, 5, upper, resynthesize)


def _assert_same_search(got, want, where):
    phi, outcomes = got
    want_phi, want_outcomes = want
    assert phi == want_phi, where
    assert sorted(outcomes) == sorted(want_outcomes), where
    for probe, outcome in outcomes.items():
        ref = want_outcomes[probe]
        assert outcome.feasible == ref.feasible, (where, probe)
        assert outcome.labels == ref.labels, (where, probe)
        assert outcome.failed_scc == ref.failed_scc, (where, probe)
        assert _int_counters(outcome.stats) == _int_counters(ref.stats), (
            where, probe,
        )
        assert outcome.stats.dinic_phases == outcome.stats.arcs_advanced == 0


class TestSearches:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", [e.name for e in bench_suite.SUITE])
    def test_turbomap(self, monkeypatch, name, seed):
        circuit = _circuit(name, seed)
        upper = driver.default_upper_bound(circuit)
        _assert_same_search(
            _search(monkeypatch, LabelSolver, circuit, upper, False),
            _search(monkeypatch, ExpansionLabelSolver, circuit, upper, False),
            (name, seed),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", bench_suite.quick_subset())
    def test_turbosyn(self, monkeypatch, name, seed):
        circuit = _circuit(name, seed)
        upper, _ = driver.search_min_phi(
            circuit, 5, driver.default_upper_bound(circuit), False
        )
        got = _search(monkeypatch, LabelSolver, circuit, upper, True)
        want = _search(monkeypatch, ExpansionLabelSolver, circuit, upper, True)
        _assert_same_search(got, want, (name, seed))
        assert any(o.stats.expansions_reused for o in got[1].values())


def _label_vectors(circuit, seed):
    """Converged labels at the minimum phi, then a random vector over
    the same gates (PIs stay 0)."""
    phi = 1
    while True:
        outcome = LabelSolver(circuit, K, phi).run()
        if outcome.feasible:
            break
        phi += 1
    yield phi, list(outcome.labels)
    rng = default_rng(seed)
    shaken = [0] * len(circuit)
    for g in circuit.gates:
        shaken[g] = int(rng.integers(1, 3 * phi + 3))
    yield phi, shaken


@pytest.mark.parametrize("seed", range(8))
def test_walk_matches_the_partial_expansion(seed):
    """Leaf set (in expansion order), blocked flag and memo guard of
    every query equal the full expansion's and the guard the general
    route reads off it, on thresholds from below zero (blocked) to
    above the label."""
    circuit = random_seq_circuit(4, 40, seed=seed, feedback=4)
    cc = circuit.compiled()
    blocked = walked = 0
    for phi, labels in _label_vectors(circuit, seed):
        solver = LabelSolver(circuit, K, phi)
        oracle = ExpansionLabelSolver(circuit, K, phi)
        solver.labels[:] = labels
        oracle.labels[:] = labels
        for v in circuit.gates:
            for threshold in range(-1, labels[v] + 2):
                leaves, guard = solver._walk_frontier(v, threshold)
                expansion = expand_partial_packed(cc, v, phi, labels, threshold)
                assert (leaves is None) == expansion.blocked
                if leaves is None:
                    blocked += 1
                    assert guard == {}
                else:
                    walked += 1
                    assert not expansion.candidates
                    assert leaves == expansion.leaves
                cut = cut_on_packed(expansion, K)
                oracle._record_query(v, threshold, expansion, cut)
                assert guard == oracle._check_guard[v], (v, threshold)
    assert blocked > 0 and walked > 0


def test_default_turbomap_labels_never_expand(monkeypatch):
    """Disarmed, no label probe of a default TurboMap run builds a
    partial expansion (mapping still does); armed, SAN007 rebuilds one
    per frontier query."""
    inside = [False]
    calls = []
    real_probe = driver.probe_phi

    def probe(*args, **kwargs):
        inside[0] = True
        try:
            return real_probe(*args, **kwargs)
        finally:
            inside[0] = False

    for module in (kexpand, kcut, labels_mod):
        real = module.expand_partial_packed

        def counted(*args, _real=real, **kwargs):
            if inside[0]:
                calls.append(args[1])
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "expand_partial_packed", counted)
    monkeypatch.setattr(driver, "probe_phi", probe)
    try:
        sanitize.enable(False)
        plain = turbomap(bench_suite.build("bbara"), 5)
        assert plain.total_stats.flow_queries > 0
        assert calls == []
        sanitize.enable(True)
        armed = turbomap(bench_suite.build("bbara"), 5)
        assert len(calls) == armed.total_stats.flow_queries
    finally:
        sanitize.reset()
