"""Compare two sets of benchmark runs against the benchmark's bounds.

Usage: ``python benchmarks/e2e/compare.py A/ B/``

Each side is a directory tree of result files written by
``run.py --out`` (one ``<workload>.json`` per workload and run).  For
every workload and end-to-end metric it prints each side's quartiles
(q1/median/q3 over the side's runs) and a verdict against the metric's
bound from ``BENCHMARK.json`` (the serve tails and the exact metrics,
which it does not list, take theirs from ``metrics.REPORT_ONLY``):

* ``worse``      -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- a side's interquartile spread is wider than the
  bound, unless every run of B reads better than every run of A;
* ``ok``         -- neither.

Exact metrics (bound 0) must agree run for run on the seeds both sides
ran.  Batch workloads also get one row per circuit and the geometric
mean of the per-op time ratios B/A.  Results recorded on different
hosts are refused.  Exit status: 0 all ok, 1 anything worse or
unresolved, 2 refused.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_side(path: str) -> List[dict]:
    """Every result file under ``path`` (skipping Chrome traces)."""
    results = []
    for dirpath, _dirs, files in os.walk(path):
        for name in sorted(files):
            if name.endswith(".json") and not name.startswith("trace-"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    data = json.load(fh)
                if isinstance(data, dict) and "workload" in data and "values" in data:
                    results.append(data)
    return results


def load_bounds() -> Dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for name, spec in metrics.REPORT_ONLY.items():
        bounds.setdefault(name, dict(spec, name=name))
    return bounds


def verdict(a: List[float], b: List[float], bound: float, better: str) -> "tuple[str, float]":
    """``(verdict, change)``; change is B's median relative to A's,
    positive when B is worse."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = sign * (med_b - med_a) / med_a if med_a else 0.0
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(metrics.spread(a), metrics.spread(b)) > bound and not all_better:
        return "unresolved", change
    return ("worse" if change > bound else "ok"), change


def exact_verdict(a: List[dict], b: List[dict], metric: str) -> str:
    """Exact metrics agree run for run on shared seeds (or, with no
    shared seed, in their medians)."""
    by_seed_a = {r["seed"]: r["values"].get(metric) for r in a}
    by_seed_b = {r["seed"]: r["values"].get(metric) for r in b}
    shared = set(by_seed_a) & set(by_seed_b)
    if shared:
        same = all(by_seed_a[s] == by_seed_b[s] for s in shared)
    else:
        same = (statistics.median(by_seed_a.values())
                == statistics.median(by_seed_b.values()))
    return "ok" if same else "worse"


def op_medians(results: List[dict]) -> Dict[str, float]:
    """Median seconds of each circuit/algorithm op over a side's untraced
    passes."""
    return metrics.per_op_medians(
        p["ops"] for r in results for p in r.get("passes") or [] if not p["traced"]
    )


def _q(values: List[float]) -> str:
    q1, med, q3 = metrics.quartiles(values)
    return f"{q1:.4g}/{med:.4g}/{q3:.4g}"


def compare(a_results: List[dict], b_results: List[dict],
            out=sys.stdout) -> Optional[int]:
    """Print the comparison; the exit status (``None`` when refused)."""
    hosts = {json.dumps(r["host"], sort_keys=True) for r in a_results + b_results}
    if len(hosts) > 1:
        out.write("refused: the results were recorded on different hosts:\n")
        for host in sorted(hosts):
            out.write(f"  {host}\n")
        return None
    bounds = load_bounds()
    bad = 0
    out.write(f"{'workload':<11} {'metric':<13} {'nA':>3} {'A q1/med/q3':>26} "
              f"{'nB':>3} {'B q1/med/q3':>26} {'change':>8} {'bound':>6}  verdict\n")
    workloads = sorted({r["workload"] for r in a_results} & {r["workload"] for r in b_results})
    for workload in workloads:
        a = [r for r in a_results if r["workload"] == workload]
        b = [r for r in b_results if r["workload"] == workload]
        for metric in metrics.END_TO_END:
            va = [r["values"][metric] for r in a if r["values"].get(metric) is not None]
            vb = [r["values"][metric] for r in b if r["values"].get(metric) is not None]
            if not va or not vb:
                continue
            spec = bounds[metric]
            if spec["bound"] == 0:
                result, change = exact_verdict(a, b, metric), 0.0
            else:
                result, change = verdict(va, vb, spec["bound"], spec["better"])
            bad += result != "ok"
            out.write(f"{workload:<11} {metric:<13} {len(va):>3} {_q(va):>26} "
                      f"{len(vb):>3} {_q(vb):>26} {change:>+8.1%} "
                      f"{spec['bound']:>6.0%}  {result}\n")
    for workload in workloads:
        ops_a = op_medians([r for r in a_results if r["workload"] == workload])
        ops_b = op_medians([r for r in b_results if r["workload"] == workload])
        shared = [k for k in ops_a if k in ops_b]
        if not shared:
            continue
        out.write(f"\n{workload}: per-op median seconds\n")
        for key in shared:
            out.write(f"  {key:<20} {ops_a[key]:>9.4f} {ops_b[key]:>9.4f} "
                      f"{ops_b[key] / ops_a[key]:>7.3f}x\n")
        ratio = metrics.geomean(ops_b[k] / ops_a[k] for k in shared)
        out.write(f"  {'geomean B/A':<20} {'':>9} {'':>9} {ratio:>7.3f}x\n")
    return 1 if bad else 0


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    a, b = load_side(argv[1]), load_side(argv[2])
    if not a or not b:
        sys.stderr.write("compare: no result files on one side\n")
        return 2
    status = compare(a, b)
    return 2 if status is None else status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
