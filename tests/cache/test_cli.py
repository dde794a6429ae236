"""Cache maintenance CLI: stats/clear/audit/warmcheck and delegation."""

import json

from repro.cache.__main__ import main, warm_run_deltas
from repro.cache.store import OutcomeCache, cache_key
from repro.core.labels import LabelOutcome, LabelStats
from tests.helpers import random_seq_circuit


def seed_cache(root):
    cache = OutcomeCache(root)
    circuit = random_seq_circuit(4, 24, seed=11)
    key = cache_key(circuit, 4, False)
    cache.put_outcome(
        key,
        3,
        LabelOutcome(
            feasible=True, labels=[0] * len(circuit), stats=LabelStats()
        ),
    )
    return cache, key


def run(circuit, phi, *, hits=0, flow=100, algorithm="turbomap"):
    return {
        "circuit": circuit,
        "algorithm": algorithm,
        "phi": phi,
        "seconds": 0.1,
        "stats": {"outcome_cache_hits": hits, "flow_queries": flow},
    }


def report(*runs):
    return {"runs": list(runs)}


class TestWarmRunDeltas:
    def test_clean_pair_has_no_problems(self):
        cold = report(run("bbara", 5), run("keyb", 7))
        warm = report(
            run("bbara", 5, hits=3, flow=0), run("keyb", 7, hits=4, flow=0)
        )
        problems, lines = warm_run_deltas(cold, warm)
        assert problems == []
        assert lines[-1].startswith("TOTAL flow 200 -> 0")

    def test_phi_drift_is_a_problem(self):
        cold = report(run("bbara", 5))
        warm = report(run("bbara", 6, hits=3, flow=0))
        problems, _lines = warm_run_deltas(cold, warm)
        assert any("phi drifted 5 -> 6" in p for p in problems)

    def test_no_hits_is_a_problem(self):
        cold = report(run("bbara", 5))
        warm = report(run("bbara", 5, hits=0, flow=0))
        problems, _lines = warm_run_deltas(cold, warm)
        assert any("no outcome_cache_hits" in p for p in problems)

    def test_no_flow_reduction_is_a_problem(self):
        cold = report(run("bbara", 5, flow=100))
        warm = report(run("bbara", 5, hits=3, flow=100))
        problems, _lines = warm_run_deltas(cold, warm)
        assert any("did not reduce flow queries" in p for p in problems)

    def test_mismatched_run_sets_are_a_problem(self):
        cold = report(run("bbara", 5))
        warm = report(run("keyb", 7, hits=1, flow=0))
        problems, _lines = warm_run_deltas(cold, warm)
        assert any("run sets differ" in p for p in problems)

    def test_runs_keyed_by_circuit_algorithm(self):
        # Same circuit under two algorithms must pair with itself.
        cold = report(
            run("bbara", 5, algorithm="turbomap", flow=60),
            run("bbara", 2, algorithm="turbosyn", flow=80),
        )
        warm = report(
            run("bbara", 2, algorithm="turbosyn", hits=2, flow=0),
            run("bbara", 5, algorithm="turbomap", hits=2, flow=0),
        )
        problems, lines = warm_run_deltas(cold, warm)
        assert problems == []
        assert len(lines) == 3  # two pairs + the total


class TestMainCommands:
    def test_stats(self, tmp_path, capsys):
        seed_cache(tmp_path)
        assert main(["stats", str(tmp_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1

    def test_clear(self, tmp_path, capsys):
        seed_cache(tmp_path)
        assert main(["clear", str(tmp_path)]) == 0
        assert "cleared 1 cache entries" in capsys.readouterr().out
        assert OutcomeCache(tmp_path).stats()["entries"] == 0

    def test_audit_clean_exits_zero(self, tmp_path, capsys):
        seed_cache(tmp_path)
        assert main(["audit", str(tmp_path)]) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_audit_corrupt_exits_one(self, tmp_path, capsys):
        cache, key = seed_cache(tmp_path)
        with open(cache._entry_path(key), "w") as fh:
            fh.write("not json")
        assert main(["audit", str(tmp_path)]) == 1
        assert "CACHE001" in capsys.readouterr().out

    def test_warmcheck_against_real_reports(self, tmp_path, capsys):
        from repro.perf.report import suite_report

        cold = suite_report([run("bbara", 5, flow=100)])
        warm = suite_report([run("bbara", 5, hits=2, flow=0)])
        first = tmp_path / "cold.json"
        second = tmp_path / "warm.json"
        first.write_text(json.dumps(cold))
        second.write_text(json.dumps(warm))
        assert main(["warmcheck", str(first), str(second)]) == 0
        assert "warmcheck OK" in capsys.readouterr().out

    def test_warmcheck_fails_on_drift(self, tmp_path, capsys):
        from repro.perf.report import suite_report

        cold = suite_report([run("bbara", 5, flow=100)])
        warm = suite_report([run("bbara", 6, hits=2, flow=0)])
        first = tmp_path / "cold.json"
        second = tmp_path / "warm.json"
        first.write_text(json.dumps(cold))
        second.write_text(json.dumps(warm))
        assert main(["warmcheck", str(first), str(second)]) == 1
        assert "FAIL" in capsys.readouterr().err


class TestReproCliDelegation:
    def test_repro_cache_subcommand_delegates(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        seed_cache(tmp_path)
        assert repro_main(["cache", "stats", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 1
