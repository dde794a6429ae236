"""End-to-end bit-identity against the reference oracle.

The acceptance bar of the kernel layer: the label solver (packed
expansions, Dinic cuts, event-driven worklist) must produce the same
labels, phi, and mappings as the definition-level oracle of
``tests/helpers.py`` (tuple-copy expansions, Edmonds-Karp cuts, a plain
round-robin sweep with no memo).
"""

import pytest

from repro.bench import suite as bench_suite
from repro.core import driver
from repro.core.labels import LabelSolver
from repro.core.turbomap import turbomap
from repro.core.turbosyn import turbosyn
from tests.helpers import OracleLabelSolver


def _min_phi(circuit, k=5):
    phi = 1
    while not OracleLabelSolver(circuit, k, phi).run().feasible:
        phi += 1
    return phi


class TestLabelIdentity:
    @pytest.mark.parametrize("name", ["bbara", "dk16", "s838"])
    def test_labels_match_oracle(self, name):
        circuit = bench_suite.build(name)
        phi = _min_phi(circuit)
        oracle = OracleLabelSolver(circuit, 5, phi).run()
        outcome = LabelSolver(circuit, 5, phi).run()
        assert outcome.feasible and oracle.feasible
        assert outcome.labels == oracle.labels

    def test_infeasible_phi_agrees(self):
        circuit = bench_suite.build("bbara")
        phi = _min_phi(circuit)
        if phi == 1:
            pytest.skip("already feasible at phi=1")
        oracle = OracleLabelSolver(circuit, 5, phi - 1).run()
        outcome = LabelSolver(circuit, 5, phi - 1).run()
        assert not oracle.feasible and not outcome.feasible
        assert sorted(outcome.failed_scc) == sorted(oracle.failed_scc)

    def test_dinic_counters_populate_only_under_dinic(self):
        # At extra_depth=0 every cut is a frontier answer and no flow
        # solver runs; extra_depth=1 exposes candidate copies.
        circuit = bench_suite.build("bbara")
        phi = _min_phi(circuit)
        frontier = LabelSolver(circuit, 5, phi).run()
        deep = LabelSolver(circuit, 5, phi, extra_depth=1).run()
        assert frontier.stats.dinic_phases == 0
        assert frontier.stats.arcs_advanced == 0
        assert deep.stats.dinic_phases > 0
        assert deep.stats.arcs_advanced > 0
        assert deep.labels == OracleLabelSolver(
            circuit, 5, phi, extra_depth=1
        ).run().labels


class TestMapperIdentity:
    """Whole mapper runs with every probe on the oracle instead."""

    def _pair(self, monkeypatch, mapper, name):
        new = mapper(bench_suite.build(name), 5, check=False)
        with monkeypatch.context() as patch:
            # probe_phi builds its solver from the driver module's name.
            patch.setattr(driver, "LabelSolver", OracleLabelSolver)
            old = mapper(bench_suite.build(name), 5, check=False)
        assert new.phi == old.phi
        assert new.n_luts == old.n_luts
        assert list(new.labels) == list(old.labels)
        assert sorted(new.outcomes) == sorted(old.outcomes)

    def test_turbomap_matches_reference_engine(self, monkeypatch):
        self._pair(monkeypatch, turbomap, "bbara")

    def test_turbosyn_matches_reference_engine(self, monkeypatch):
        self._pair(monkeypatch, turbosyn, "dk16")
