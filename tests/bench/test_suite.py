"""Tests for the Table-1 benchmark suite."""

import pytest

from repro.bench.suite import (
    SUITE,
    build,
    build_suite,
    entry,
    large_circuit,
    quick_subset,
    run_suite_report,
)
from repro.resilience import faultinject
from repro.resilience.faultinject import Fault, FaultPlan


class TestSuiteDefinition:
    def test_sixteen_entries(self):
        assert len(SUITE) == 16

    def test_twelve_fsm_four_datapath(self):
        kinds = [e.kind for e in SUITE]
        assert kinds.count("fsm") == 12
        assert kinds.count("datapath") == 4

    def test_paper_names_present(self):
        names = {e.name for e in SUITE}
        for expected in ["bbara", "planet", "scf", "styr", "s1423", "s5378"]:
            assert expected in names

    def test_entry_lookup(self):
        assert entry("bbara").kind == "fsm"

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError) as excinfo:
            entry("nonexistent")
        message = str(excinfo.value)
        assert "nonexistent" in message
        assert "bbara" in message and "s5378" in message

    def test_build_suite_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="valid suite names"):
            build_suite(["bbara", "bogus"])


class TestBuild:
    def test_deterministic(self):
        a = build("bbara")
        b = build("bbara")
        assert a.stats() == b.stats()

    @pytest.mark.parametrize("name", ["bbara", "dk16", "s838"])
    def test_valid_circuits(self, name):
        c = build(name)
        c.check()
        assert c.is_k_bounded(2)

    def test_quick_subset_builds(self):
        circuits = build_suite(quick_subset())
        assert len(circuits) == 5
        for c in circuits.values():
            assert c.n_gates > 50

    def test_fsm_profiles(self):
        c = build("bbara")
        assert len(c.pis) == 4
        assert len(c.pos) == 2
        assert c.n_ffs == 10  # one-hot: FF count = state count

    def test_large_circuit_scales(self):
        small = large_circuit(scale=1)
        big = large_circuit(scale=3)
        assert big.n_gates > small.n_gates


@pytest.fixture
def _clean_faults():
    faultinject.reset()
    yield
    faultinject.clear()


class TestSuiteReportResilience:
    """The fault boundary, checkpointing and resume of run_suite_report."""

    ALGOS = ("flowsyn-s", "turbomap")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown report algorithm"):
            run_suite_report(names=["bbara"], algorithms=("magic",))

    def test_unknown_name_fails_before_any_mapping(self):
        calls = []
        with pytest.raises(ValueError, match="valid suite names"):
            run_suite_report(
                names=["bbara", "bogus"],
                algorithms=self.ALGOS,
                check=False,
                on_cell=lambda *a: calls.append(a),
            )
        assert calls == []  # validation precedes hours of mapping

    def test_injected_cell_failure_becomes_error_entry(self, _clean_faults):
        faultinject.install(
            FaultPlan([Fault("suite-cell", "raise", match="bbara:turbomap")])
        )
        report = run_suite_report(
            names=["bbara"], algorithms=self.ALGOS, check=False
        )
        assert [
            (r["circuit"], r["algorithm"]) for r in report["runs"]
        ] == [("bbara", "flowsyn-s")]
        (err,) = report["errors"]
        assert err["error"] == "InjectedFault"
        assert err["stage"] == "map"
        assert (err["circuit"], err["algorithm"]) == ("bbara", "turbomap")

    def test_checkpoint_written_after_every_cell(self, tmp_path, _clean_faults):
        from repro.perf.report import load_report

        checkpoint = str(tmp_path / "ck.json")
        seen = []

        def on_cell(name, algo, run, error, elapsed, cached):
            seen.append((name, algo, run is not None, cached))

        report = run_suite_report(
            names=["bbara"],
            algorithms=self.ALGOS,
            check=False,
            checkpoint=checkpoint,
            on_cell=on_cell,
        )
        assert seen == [
            ("bbara", "flowsyn-s", True, False),
            ("bbara", "turbomap", True, False),
        ]
        persisted = load_report(checkpoint)
        assert persisted["schema"] == 10
        assert len(persisted["runs"]) == len(report["runs"]) == 2
        assert persisted["errors"] == []

    def test_resume_reruns_only_missing_cells(self, _clean_faults):
        faultinject.install(
            FaultPlan([Fault("suite-cell", "raise", match="bbara:turbomap")])
        )
        partial = run_suite_report(
            names=["bbara"], algorithms=self.ALGOS, check=False
        )
        faultinject.clear()
        seen = []
        resumed = run_suite_report(
            names=["bbara"],
            algorithms=self.ALGOS,
            check=False,
            resume=partial,
            on_cell=lambda n, a, run, err, el, cached: seen.append(
                (n, a, cached)
            ),
        )
        # flowsyn-s came from the partial report, only turbomap re-ran
        assert seen == [
            ("bbara", "flowsyn-s", True),
            ("bbara", "turbomap", False),
        ]
        assert resumed["errors"] == []
        assert len(resumed["runs"]) == 2

    def test_keyboard_interrupt_flushes_checkpoint(self, tmp_path, _clean_faults):
        from repro.perf.report import load_report

        faultinject.install(
            FaultPlan([Fault("suite-cell", "interrupt", match="bbara:turbomap")])
        )
        checkpoint = str(tmp_path / "ck.json")
        with pytest.raises(KeyboardInterrupt):
            run_suite_report(
                names=["bbara"],
                algorithms=self.ALGOS,
                check=False,
                checkpoint=checkpoint,
            )
        persisted = load_report(checkpoint)
        assert [
            (r["circuit"], r["algorithm"]) for r in persisted["runs"]
        ] == [("bbara", "flowsyn-s")]
