"""Smoke tests for the kernel microbenchmark harness."""

import json

from repro.bench import suite as bench_suite
from repro.perf import microbench
from repro.perf.report import SCHEMA_VERSION


class TestBenchCircuit:
    def test_one_label_row_per_circuit(self):
        circuit = bench_suite.build("bbara")
        res = microbench.bench_circuit(circuit, k=5, repeats=1)
        sample = res["labels"]
        assert sample["flow_queries"] > 0
        assert sample["dinic_phases"] > 0  # extra_depth=1 reaches Dinic
        assert sample["t_flow"] >= 0.0
        assert sample["us_per_query"] >= 0.0
        assert res["phi"] >= 1


class TestCli:
    def test_main_writes_bench_json(self, tmp_path, capsys):
        rc = microbench.main(
            ["--circuits", "bbara", "--repeats", "1", "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "kernel microbench" in out
        payload = json.loads((tmp_path / "BENCH_microbench.json").read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["kind"] == "bench-table"
        assert payload["extra_depth"] == microbench.EXTRA_DEPTH
        assert set(payload["rows"]) == {"bbara/labels"}
        assert payload["rows"]["bbara/labels"]["dinic_phases"] > 0
