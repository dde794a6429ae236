"""Percentile rule, failure accounting and metric names."""

import json
import os

import metrics
import openloop
import tracing
import workloads


def test_p90_needs_ten_samples_beyond_it():
    assert metrics.tail_percentile(150) == 90
    assert metrics.p90(list(range(150))) == 134  # nearest rank 135
    assert metrics.tail_percentile(100) == 90
    assert metrics.tail_percentile(99) is None
    assert metrics.tail_percentile(5) is None
    assert metrics.p90([1.0, 2.0, 3.0, 4.0, 5.0]) is None
    assert metrics.tail_percentile(1000) == 99


def test_quartiles_match_statistics_quantiles():
    assert metrics.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    assert metrics.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert metrics.spread([9.0, 10.0, 10.0, 11.0]) == (10.75 - 9.25) / 10.0


def _op(**fields):
    op = {"circuit": "bbara", "algorithm": "turbomap", "seconds": 0.5, "phi": 5,
          "luts": 124, "error": None, "problems": []}
    op.update(fields)
    return op


class _Refused(Exception):
    status = 429


def test_failures_count_exceptions_wrong_phi_and_refusals():
    expected = workloads.load_expected()
    good = _op()
    assert workloads.check_against_expected(good, 0, expected) == []
    raised = _op(phi=None, luts=None, error="RuntimeError: boom")
    wrong = _op(phi=6)
    wrong["problems"] += workloads.check_against_expected(wrong, 3, expected)
    assert wrong["problems"] == ["phi 6 != expected 5"]

    def refuse(job):
        raise _Refused("queue full")

    records = openloop.submit_all(
        [{"circuit": "demo0", "algorithm": "turbomap", "due": 0.0}],
        refuse, on_accepted=lambda record: None, t0=0.0,
        now=lambda: 0.0, sleep=lambda dt: None,
    )
    (refused,) = openloop.latency_ops(records)
    assert refused["error"] == "refused (429)"
    ops = [good, raised, wrong, refused]
    assert metrics.accounting(ops) == (4, 3)
    assert [metrics.failed(op) for op in ops] == [False, True, True, True]


def test_turbosyn_may_not_lose_to_turbomap_on_any_seed():
    expected = workloads.load_expected()
    op = _op(algorithm="turbosyn", phi=6, luts=1)
    assert workloads.check_against_expected(op, 7, expected) == [
        "TurboSYN phi 6 > TurboMap phi 5"
    ]


def test_distinct_sums_count_each_pair_once():
    ops = [_op(), _op(), _op(circuit="dk16", phi=2, luts=139)]
    assert metrics.distinct_sums(ops) == (7, 263)


def test_expected_sums_match_the_per_circuit_values():
    expected = workloads.load_expected()
    for workload, sums in expected["sums"].items():
        algos = {"cold-syn": ["turbosyn"], "cold-map": ["turbomap"],
                 "warm-mix": ["turbomap", "turbosyn"]}[workload]
        names = {"cold-map": list(expected["turbomap"])}.get(
            workload, list(expected["turbosyn"])
        )
        entries = [expected[a][n] for a in algos for n in names]
        assert sum(e["phi"] for e in entries) == sums["phi_sum"]
        assert sum(e["luts"] for e in entries) == sums["luts_sum"]


def _benchmark():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_every_metric_name_is_well_formed():
    bench = _benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(set(names)) == len(names)
    for name in names + list(metrics.END_TO_END):
        assert metrics.NAME_RE.match(name), name


def test_benchmark_lists_what_the_runner_reports():
    bench = _benchmark()
    gated = {m["name"] for m in bench["end_to_end"]}
    assert gated <= set(metrics.END_TO_END)
    assert not gated & set(metrics.REPORT_ONLY)
    assert gated | set(metrics.REPORT_ONLY) == set(metrics.END_TO_END)
    layers = set(tracing.layer_metrics([])) | {"trace.overhead_ratio"}
    assert {m["name"] for m in bench["per_layer"]} == layers
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
