"""Smoke tests for the kernel microbenchmark harness."""

import json

import pytest

from repro.bench import suite as bench_suite
from repro.compat import HAVE_NUMPY
from repro.perf import microbench
from repro.perf.report import SCHEMA_VERSION

BASE_CELLS = {"ek+object", "ek+compiled", "dinic+object", "dinic+compiled"}


class TestBenchCircuit:
    def test_rows_cover_the_matrix(self):
        circuit = bench_suite.build("bbara")
        res = microbench.bench_circuit(circuit, k=5, repeats=1)
        expected = set(BASE_CELLS)
        if HAVE_NUMPY:
            expected.add("dinic+vector")
        assert set(res["cells"]) == expected
        for sample in res["cells"].values():
            assert sample["flow_queries"] > 0
            assert sample["t_flow"] >= 0.0
            assert sample["us_per_query"] >= 0.0
        assert res["cells"]["dinic+compiled"]["dinic_phases"] > 0
        assert res["cells"]["ek+object"]["dinic_phases"] == 0
        assert res["phi"] >= 1

    def test_handoff_bytes(self):
        circuit = bench_suite.build("bbara")
        sizes = microbench.handoff_bytes(circuit)
        assert sizes["csr_blob"] < sizes["pickled_circuit"]
        handle_sizes = [
            v for k, v in sizes.items() if k.startswith("handle_")
        ]
        assert len(handle_sizes) == 1


class TestCrossoverSweep:
    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    def test_sweep_grid_and_crossover_shape(self):
        sweep = microbench.crossover_sweep(
            widths=(2, 8), sizes=(32, 96), repeats=1
        )
        assert sweep["numpy"] is True
        assert len(sweep["grid"]) == 4
        for row in sweep["grid"]:
            assert row["t_scalar_us"] > 0.0
            assert row["t_vector_us"] > 0.0
            assert row["speedup"] > 0.0
        crossover = sweep["crossover_nodes"]
        assert crossover is None or crossover in sweep["sizes"]

    def test_crossover_needs_a_real_vector_win(self):
        def res(nodes, compiled, vector):
            return {
                "nodes": nodes,
                "cells": {
                    "dinic+compiled": {"t_total": compiled},
                    "dinic+vector": {"t_total": vector},
                },
            }

        sweep = {"grid": [], "crossover_nodes": 1024}
        confirm = microbench.confirm_crossover
        assert confirm(sweep, [res(2000, 2.0, 1.0)]) == sweep
        # vector slower, or faster only on a smaller circuit
        for results in ([res(2000, 1.0, 6.0)], [res(500, 2.0, 1.0)], []):
            assert confirm(sweep, results) == {
                "grid": [],
                "crossover_nodes": None,
                "unconfirmed_crossover_nodes": 1024,
            }
        null = {"grid": [], "crossover_nodes": None}
        assert confirm(null, [res(2000, 2.0, 1.0)]) == null

    def test_sweep_without_numpy_is_inert(self, monkeypatch):
        monkeypatch.setattr(microbench, "HAVE_NUMPY", False)
        sweep = microbench.crossover_sweep(widths=(2,), sizes=(16,))
        assert sweep == {
            "numpy": False,
            "widths": [2],
            "sizes": [16],
            "grid": [],
            "crossover_nodes": None,
        }

    def test_envelope_reaches_the_auto_kernel(self, tmp_path):
        from repro.kernel.batch import crossover_nodes

        payload = microbench.as_table(
            [], envelope={"crossover": {"crossover_nodes": 97}}
        )
        path = tmp_path / "BENCH_microbench.json"
        path.write_text(json.dumps(payload))
        assert crossover_nodes(str(path)) == 97

    def test_synthetic_expansion_is_deterministic(self):
        a = microbench.synthetic_expansion(48, seed=7)
        b = microbench.synthetic_expansion(48, seed=7)
        assert (a.interior, a.candidates, a.leaves, a.edges) == (
            b.interior, b.candidates, b.leaves, b.edges
        )
        total = len(a.interior) + len(a.candidates) + len(a.leaves)
        assert total == 48


class TestCli:
    def test_main_writes_bench_json(self, tmp_path, capsys):
        rc = microbench.main(
            [
                "--circuits", "bbara", "--repeats", "1",
                "--no-sweep", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "kernel microbench" in out
        payload = json.loads((tmp_path / "BENCH_microbench.json").read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["kind"] == "bench-table"
        assert any(row.endswith("/handoff") for row in payload["rows"])
        assert "bbara/dinic+compiled" in payload["rows"]
        assert "envelope" not in payload  # --no-sweep

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    def test_main_records_envelope_with_sweep(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(microbench, "SWEEP_WIDTHS", (2,))
        monkeypatch.setattr(microbench, "SWEEP_SIZES", (24,))
        rc = microbench.main(
            ["--circuits", "s838", "--repeats", "1", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert "crossover" in capsys.readouterr().out
        payload = json.loads((tmp_path / "BENCH_microbench.json").read_text())
        crossover = payload["envelope"]["crossover"]
        assert crossover["grid"], crossover
        assert "crossover_nodes" in crossover
