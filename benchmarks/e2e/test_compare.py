"""Verdicts of the compare tool."""

import io

import compare


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(steady, steady, 0.1, "lower")[0] == "ok"
    slower = [x * 1.3 for x in steady]
    verdict, change = compare.verdict(steady, slower, 0.1, "lower")
    assert verdict == "worse" and abs(change - 0.3) < 1e-9
    assert compare.verdict(steady, slower, 0.1, "higher")[0] == "ok"
    noisy = [5.0, 10.0, 15.0, 20.0, 8.0]
    assert compare.verdict(steady, noisy, 0.1, "lower")[0] == "unresolved"
    # A spread wider than the bound still resolves when every run of B
    # beats every run of A.
    assert compare.verdict([30.0, 40.0, 50.0], [5.0, 6.0, 9.0], 0.1, "lower")[0] == "ok"


def _result(seed, host="h", **values):
    return {"workload": "cold-syn", "seed": seed, "host": {"cpu": host},
            "values": values, "passes": []}


def test_exact_metrics_must_agree_per_seed():
    a = [_result(1, phi_sum=12), _result(2, phi_sum=11)]
    assert compare.exact_verdict(a, [_result(1, phi_sum=12)], "phi_sum") == "ok"
    assert compare.exact_verdict(a, [_result(2, phi_sum=12)], "phi_sum") == "worse"


def test_refuses_other_hosts():
    out = io.StringIO()
    status = compare.compare([_result(1, wall_s=1.0)], [_result(1, "other", wall_s=1.0)], out)
    assert status is None and out.getvalue().startswith("refused")
