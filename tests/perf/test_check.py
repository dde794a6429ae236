"""The regression gate: baseline comparison policy and CLI exit codes."""

import json

from repro.perf import check as perf_check


def _report(runs, errors=None):
    report = {"schema": 10, "kind": "suite", "runs": runs}
    if errors is not None:
        report["errors"] = errors
    return report


def _run(
    circuit="bbara",
    algo="turbomap",
    phi=3,
    luts=100,
    seconds=1.0,
    flow_queries=None,
    updates=None,
):
    run = {
        "circuit": circuit,
        "algorithm": algo,
        "phi": phi,
        "luts": luts,
        "seconds": seconds,
    }
    if flow_queries is not None or updates is not None:
        run["stats"] = {"flow_queries": flow_queries, "updates": updates}
    return run


class TestCompare:
    def test_clean_pass(self):
        comparison = perf_check.compare(
            _report([_run()]), _report([_run()]), tolerance=0.25
        )
        assert comparison.ok and comparison.compared == 1
        assert not comparison.regressions

    def test_phi_increase_is_regression(self):
        comparison = perf_check.compare(
            _report([_run(phi=3)]), _report([_run(phi=4)])
        )
        assert not comparison.ok
        assert any("phi regressed" in r for r in comparison.regressions)

    def test_phi_decrease_is_improvement(self):
        comparison = perf_check.compare(
            _report([_run(phi=3)]), _report([_run(phi=2)])
        )
        assert comparison.ok
        assert any("phi improved" in s for s in comparison.improvements)

    def test_lut_growth_within_tolerance_passes(self):
        comparison = perf_check.compare(
            _report([_run(luts=100)]), _report([_run(luts=120)]), tolerance=0.25
        )
        assert comparison.ok

    def test_lut_growth_beyond_tolerance_fails(self):
        comparison = perf_check.compare(
            _report([_run(luts=100)]), _report([_run(luts=130)]), tolerance=0.25
        )
        assert not comparison.ok
        assert any("luts regressed" in r for r in comparison.regressions)

    def test_time_slowdown_warns_by_default(self):
        # A 20 ms cell: the warning must show the change it warns about.
        comparison = perf_check.compare(
            _report([_run(seconds=0.020)]), _report([_run(seconds=0.026)])
        )
        assert comparison.ok
        assert comparison.warnings == [
            "bbara/turbomap: time 0.020s -> 0.026s (> 25% tolerance)"
        ]

    def test_time_gate_opt_in(self):
        comparison = perf_check.compare(
            _report([_run(seconds=1.0)]),
            _report([_run(seconds=3.0)]),
            time_tolerance=0.5,
        )
        assert not comparison.ok

    def test_disjoint_runs_not_ok(self):
        comparison = perf_check.compare(
            _report([_run(circuit="a")]), _report([_run(circuit="b")])
        )
        assert comparison.compared == 0
        assert not comparison.ok


class TestResiliencePolicy:
    """Schema-2 degraded runs and error entries under the gate."""

    def _degraded(self, phi):
        run = _run(phi=phi)
        run["degraded"] = True
        run["degraded_reason"] = "deadline"
        return run

    def _error(self):
        return {
            "circuit": "bbara",
            "algorithm": "turbomap",
            "error": "InjectedFault",
            "message": "injected fault",
            "stage": "map",
            "elapsed": 0.1,
        }

    def test_degraded_run_flagged_as_warning(self):
        comparison = perf_check.compare(
            _report([_run(phi=3)]), _report([self._degraded(phi=3)])
        )
        assert comparison.ok
        assert any("degraded run (deadline)" in w for w in comparison.warnings)

    def test_degraded_phi_regression_warns_not_fails(self):
        comparison = perf_check.compare(
            _report([_run(phi=3)]), _report([self._degraded(phi=5)])
        )
        assert comparison.ok
        assert any("phi regressed" in w for w in comparison.warnings)

    def test_strict_resilience_fails_degraded_regression(self):
        comparison = perf_check.compare(
            _report([_run(phi=3)]),
            _report([self._degraded(phi=5)]),
            strict_resilience=True,
        )
        assert not comparison.ok
        assert any("phi regressed" in r for r in comparison.regressions)

    def test_error_entries_warn_by_default(self):
        comparison = perf_check.compare(
            _report([_run()]), _report([_run()], errors=[self._error()])
        )
        assert comparison.ok
        assert any("cell failed" in w for w in comparison.warnings)

    def test_strict_resilience_fails_on_error_entries(self):
        comparison = perf_check.compare(
            _report([_run()]),
            _report([_run()], errors=[self._error()]),
            strict_resilience=True,
        )
        assert not comparison.ok

    def test_strict_flag_wired_through_main(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(_report([_run()])))
        cur.write_text(json.dumps(_report([_run()], errors=[self._error()])))
        assert perf_check.main([str(base), str(cur)]) == 0
        assert (
            perf_check.main([str(base), str(cur), "--strict-resilience"]) == 1
        )


class TestCounterGate:
    """Deterministic work counters (schema 3) under the gate."""

    def _pair(self, base_fq, cur_fq, cur_updates=100):
        base = _report([_run(flow_queries=base_fq, updates=100)])
        cur = _report([_run(flow_queries=cur_fq, updates=cur_updates)])
        return base, cur

    def test_counter_growth_beyond_tolerance_fails(self):
        base, cur = self._pair(100, 120)
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert not comparison.ok
        assert any(
            "flow_queries regressed" in r for r in comparison.regressions
        )

    def test_counter_growth_within_tolerance_passes(self):
        base, cur = self._pair(100, 108)
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert comparison.ok

    def test_counter_drop_is_improvement(self):
        base, cur = self._pair(100, 60)
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert comparison.ok
        assert any(
            "flow_queries improved" in s for s in comparison.improvements
        )

    def test_updates_gated_too(self):
        base, cur = self._pair(100, 100, cur_updates=200)
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert not comparison.ok
        assert any("updates regressed" in r for r in comparison.regressions)

    def test_stale_warm_start_key_does_not_soften_the_gate(self):
        # Older reports carry a "warm_start" envelope key; current ones
        # do not.  The key no longer means anything, so counter growth
        # against such a baseline still fails hard.
        base, cur = self._pair(100, 300)
        base["warm_start"] = False
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert not comparison.ok
        assert any(
            "flow_queries regressed 100 -> 300" in r
            for r in comparison.regressions
        )
        assert not any("flow_queries" in w for w in comparison.warnings)

    def test_current_schema_counter_growth_is_a_regression(self, tmp_path):
        # Reports written by the current code: nothing in the envelope
        # may soften the gate, so a 20% flow_queries growth fails hard.
        from repro.perf.report import load_report, suite_report, write_report

        paths = []
        for tag, fq in (("base", 100), ("cur", 120)):
            report = suite_report(
                [_run(flow_queries=fq, updates=100)], k=5
            )
            assert report["schema"] == 10
            path = tmp_path / f"{tag}.json"
            write_report(report, str(path))
            paths.append(str(path))
        assert perf_check.main(paths) == 1
        comparison = perf_check.compare(
            load_report(paths[0]), load_report(paths[1])
        )
        assert any(
            "flow_queries regressed 100 -> 120" in r
            for r in comparison.regressions
        )
        assert not any("flow_queries" in w for w in comparison.warnings)

    def test_dinic_counters_gated(self):
        base = _report([_run()])
        cur = _report([_run()])
        base["runs"][0]["stats"] = {"dinic_phases": 100, "arcs_advanced": 1000}
        cur["runs"][0]["stats"] = {"dinic_phases": 200, "arcs_advanced": 1000}
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert not comparison.ok
        assert any(
            "dinic_phases regressed" in r for r in comparison.regressions
        )

    def test_zero_baseline_dinic_counters_skipped(self):
        # A default-depth baseline reports dinic_phases=0 (every cut is
        # a frontier answer); a zero baseline counter is never gated (no
        # meaningful ratio).
        base, cur = self._pair(100, 100)
        base["runs"][0]["stats"]["dinic_phases"] = 0
        cur["runs"][0]["stats"]["dinic_phases"] = 500
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert comparison.ok

    def test_degraded_counter_regression_warns(self):
        base, cur = self._pair(100, 300)
        cur["runs"][0]["degraded"] = True
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert comparison.ok
        assert any(
            "flow_queries regressed" in w for w in comparison.warnings
        )

    def test_counter_gate_off(self):
        base, cur = self._pair(100, 300)
        comparison = perf_check.compare(base, cur, counter_tolerance=None)
        assert comparison.ok
        assert not comparison.warnings

    def test_counter_flags_wired_through_main(self, tmp_path):
        base, cur = self._pair(100, 300)
        base_path = tmp_path / "base.json"
        cur_path = tmp_path / "cur.json"
        base_path.write_text(json.dumps(base))
        cur_path.write_text(json.dumps(cur))
        assert perf_check.main([str(base_path), str(cur_path)]) == 1
        assert (
            perf_check.main(
                [str(base_path), str(cur_path), "--counter-tolerance", "3.0"]
            )
            == 0
        )
        assert (
            perf_check.main([str(base_path), str(cur_path), "--no-counters"])
            == 0
        )


class TestCacheCounterGate:
    """Saved-work counters gate in the *inverted* direction: losing
    cache hits between two warm runs is the regression."""

    def _pair(self, base_hits, cur_hits):
        base = _report([_run()])
        cur = _report([_run()])
        base["runs"][0]["stats"] = {"outcome_cache_hits": base_hits}
        cur["runs"][0]["stats"] = {"outcome_cache_hits": cur_hits}
        return base, cur

    def test_hit_drop_is_a_regression(self):
        base, cur = self._pair(10, 2)
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert not comparison.ok
        assert any(
            "outcome_cache_hits regressed" in r
            for r in comparison.regressions
        )

    def test_hit_growth_is_an_improvement(self):
        base, cur = self._pair(10, 20)
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert comparison.ok
        assert not comparison.regressions

    def test_cold_baseline_never_gates(self):
        # A cold baseline reports zero hits; a warm current run must
        # not be judged against it (no meaningful ratio) — the gate
        # only bites warm-vs-warm.
        base, cur = self._pair(0, 0)
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert comparison.ok

    def test_probes_skipped_and_seeds_gated_too(self):
        for counter in ("cache_probes_skipped", "cache_seeds"):
            base, cur = self._pair(0, 0)
            base["runs"][0]["stats"] = {counter: 50}
            cur["runs"][0]["stats"] = {counter: 5}
            comparison = perf_check.compare(
                base, cur, counter_tolerance=0.10
            )
            assert not comparison.ok, counter
            assert any(
                f"{counter} regressed" in r for r in comparison.regressions
            )


class TestMain:
    def _write(self, path, runs):
        path.write_text(json.dumps(_report(runs)))
        return str(path)

    def test_exit_zero_on_match(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", [_run()])
        cur = self._write(tmp_path / "cur.json", [_run()])
        assert perf_check.main([base, cur, "--tolerance", "0.25"]) == 0
        assert "status: OK" in capsys.readouterr().out

    def test_exit_nonzero_on_degraded_quality(self, tmp_path, capsys):
        """The CI gate catches an artificially degraded result."""
        base = self._write(tmp_path / "base.json", [_run(phi=2, luts=100)])
        cur = self._write(tmp_path / "cur.json", [_run(phi=4, luts=200)])
        assert perf_check.main([base, cur, "--tolerance", "0.25"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "status: FAIL" in out

    def test_exit_nonzero_when_nothing_overlaps(self, tmp_path):
        base = self._write(tmp_path / "base.json", [_run(circuit="a")])
        cur = self._write(tmp_path / "cur.json", [_run(circuit="b")])
        assert perf_check.main([base, cur]) == 1

    def test_exit_nonzero_on_missing_file(self, tmp_path):
        base = self._write(tmp_path / "base.json", [_run()])
        assert perf_check.main([base, str(tmp_path / "nope.json")]) == 1
