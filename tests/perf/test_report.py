"""Run-report serialization: schema shape, JSON round trip, telemetry."""

import json

import pytest

from repro.core.driver import run_mapper
from repro.perf import report as perf_report
from tests.helpers import random_seq_circuit


def _result():
    circuit = random_seq_circuit(3, 12, seed=1, feedback=2)
    return circuit, run_mapper(
        circuit, 3, algorithm="turbomap", resynthesize=False
    )


class TestMapperRun:
    def test_shape(self):
        circuit, result = _result()
        run = perf_report.mapper_run(result, circuit, seconds=1.5)
        assert run["circuit"] == circuit.name
        assert run["algorithm"] == "turbomap"
        assert run["phi"] == result.phi
        assert run["luts"] == result.n_luts
        assert run["seconds"] == 1.5
        assert run["gates"] == circuit.n_gates
        assert run["ffs"] == circuit.n_ffs
        assert run["search"]["probes"] == sorted(result.outcomes)
        assert run["search"]["n_probes"] == len(result.outcomes)
        for gone in ("workers", "attempts"):
            assert gone not in run

    def test_telemetry_fields_populated(self):
        circuit, result = _result()
        assert result.t_search > 0.0
        assert result.t_mapping > 0.0
        stats = perf_report.mapper_run(result, circuit)["stats"]
        for key in ("t_total", "t_expand", "t_flow", "t_pld"):
            assert key in stats
        assert stats["t_total"] > 0.0
        assert stats["flow_queries"] > 0

    def test_seconds_defaults_to_result_total(self):
        circuit, result = _result()
        run = perf_report.mapper_run(result, circuit)
        assert run["seconds"] == round(
            result.t_search + result.t_mapping + result.t_verify, 6
        )
        assert run["search"]["t_verify"] == round(result.t_verify, 6)

    def test_certificate_summary_included(self):
        circuit, result = _result()
        run = perf_report.mapper_run(result, circuit)
        cert = run["certificate"]
        assert cert["verified"] is True
        assert cert["errors"] == 0
        assert "MAP002" in cert["rules"] and "CIRC001" in cert["rules"]
        assert "findings" not in cert  # reports stay small


class TestSuiteReport:
    def test_envelope_and_round_trip(self, tmp_path):
        circuit, result = _result()
        report = perf_report.suite_report(
            [perf_report.mapper_run(result, circuit)], k=3
        )
        assert report["schema"] == perf_report.SCHEMA_VERSION
        assert report["kind"] == "suite"
        assert report["k"] == 3
        path = tmp_path / "report.json"
        perf_report.write_report(report, str(path))
        loaded = perf_report.load_report(str(path))
        assert loaded == json.loads(json.dumps(report))

    def test_envelope_drops_retired_fields(self, tmp_path):
        report = perf_report.suite_report([], k=3)
        assert report["schema"] == 10
        for gone in ("engine", "flow", "kernel", "workers", "warm_start"):
            assert gone not in report
        # Schema-10 files written while the envelope had the key load.
        path = tmp_path / "old.json"
        perf_report.write_report(dict(report, warm_start=True), str(path))
        assert perf_report.load_report(str(path))["warm_start"] is True

    def test_stats_carry_warm_start_counters(self):
        circuit, result = _result()
        stats = perf_report.mapper_run(result, circuit)["stats"]
        for key in ("warm_seeded", "warm_savings", "expansions_reused"):
            assert key in stats

    def test_stats_carry_cache_counters(self):
        circuit, result = _result()
        stats = perf_report.mapper_run(result, circuit)["stats"]
        for key in (
            "outcome_cache_hits",
            "cache_probes_skipped",
            "cache_seeds",
        ):
            assert key in stats

    def test_envelope_records_cache_snapshot(self):
        snapshot = {"entries": 3, "hits": 7}
        report = perf_report.suite_report([], k=3, cache=snapshot)
        assert report["cache"] == snapshot
        assert perf_report.suite_report([], k=3)["cache"] is None

    @pytest.mark.parametrize("schema", [1, 2, 7, 8, 9, 11])
    def test_load_rejects_other_schemas(self, tmp_path, schema):
        path = tmp_path / f"v{schema}.json"
        path.write_text(
            f'{{"schema": {schema}, "kind": "suite", "runs": [], "errors": []}}'
        )
        with pytest.raises(ValueError, match=f"report schema {schema},"):
            perf_report.load_report(str(path))

    def test_load_rejects_bare_run_list(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text('[{"circuit": "x", "algorithm": "a", "phi": 1}]')
        with pytest.raises(ValueError, match="report schema None"):
            perf_report.load_report(str(path))

    def test_load_rejects_non_report(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": 1}')
        try:
            perf_report.load_report(str(path))
        except ValueError:
            return
        raise AssertionError("expected ValueError")
