"""Kernel microbenchmark: depth-1 label solves.

Usage::

    python -m repro.perf.microbench --circuits bbara dk16 \
        --out benchmarks/results

Times one label solve per circuit using the deterministic
``LabelStats`` telemetry the solver already collects: wall time,
min-cut solve time (``stats.t_flow``), partial-expansion time
(``stats.t_expand``), query count and the Dinic work counters
(``dinic_phases``, ``arcs_advanced``).

Each solve runs at the circuit's smallest feasible phi with
``extra_depth=1`` (:data:`EXTRA_DEPTH`): at the default 0 no query has
candidate copies, every cut is read off the expansion frontier, and
there is no flow solve to time.

Results go to stdout as a table and to ``BENCH_microbench.json``
(``bench-table`` schema, like the pytest-benchmark tables in
``benchmarks/results/``).  The CI microbench smoke job runs this on the
quick subset and archives the JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Dict, List, Optional

from repro.core.labels import LabelSolver
from repro.perf.report import SCHEMA_VERSION
from repro.resilience.atomic import atomic_write_json

#: Expansion depth of every solve: the shallowest at which cut queries
#: have candidate copies and so reach the flow solver.
EXTRA_DEPTH = 1


def _solve(circuit, k: int, phi: int):
    """One label run at fixed phi; returns the outcome (timed stats)."""
    return LabelSolver(circuit, k, phi, extra_depth=EXTRA_DEPTH).run()


def _find_phi(circuit, k: int) -> int:
    """The smallest feasible phi, via a linear scan."""
    phi = 1
    while not _solve(circuit, k, phi).feasible:
        phi += 1
    return phi


def bench_circuit(
    circuit,
    k: int = 5,
    phi: Optional[int] = None,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Benchmark one circuit's label solve.

    The ``labels`` sample is the best of ``repeats`` runs
    (microbenchmarks gate on minima, not means, to shed scheduler
    noise).
    """
    if phi is None:
        phi = _find_phi(circuit, k)
    best: Optional[Dict[str, Any]] = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        outcome = _solve(circuit, k, phi)
        wall = time.perf_counter() - t0
        if not outcome.feasible:
            raise RuntimeError(f"{circuit.name}: phi={phi} infeasible")
        stats = outcome.stats
        sample = {
            "t_total": wall,
            "t_flow": stats.t_flow,
            "t_expand": stats.t_expand,
            "flow_queries": stats.flow_queries,
            "dinic_phases": stats.dinic_phases,
            "arcs_advanced": stats.arcs_advanced,
        }
        if best is None or sample["t_total"] < best["t_total"]:
            best = sample
    assert best is not None
    best["us_per_query"] = 1e6 * best["t_flow"] / (best["flow_queries"] or 1)
    return {
        "circuit": circuit.name,
        "nodes": len(circuit),
        "k": k,
        "phi": phi,
        "labels": best,
    }


def as_table(results: List[Dict[str, Any]]) -> dict:
    """The ``BENCH_microbench.json`` payload (bench-table schema)."""
    rows: Dict[str, Dict[str, Any]] = {}
    for res in results:
        rows[f"{res['circuit']}/labels"] = dict(res["labels"], phi=res["phi"])
    return {
        "schema": SCHEMA_VERSION,
        "kind": "bench-table",
        "table": "microbench",
        "extra_depth": EXTRA_DEPTH,
        "rows": rows,
    }


def render(results: List[Dict[str, Any]]) -> str:
    lines = [f"== kernel microbench (extra_depth={EXTRA_DEPTH}) =="]
    header = (
        f"{'circuit':<10s} | {'phi':>3s} | {'t_flow':>9s} | "
        f"{'t_expand':>9s} | {'queries':>8s} | {'us/query':>9s} | "
        f"{'phases':>7s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for res in results:
        s = res["labels"]
        lines.append(
            f"{res['circuit']:<10s} | {res['phi']:>3d} | "
            f"{s['t_flow']:>8.4f}s | {s['t_expand']:>8.4f}s | "
            f"{s['flow_queries']:>8d} | {s['us_per_query']:>9.1f} | "
            f"{s['dinic_phases']:>7d}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.bench import suite as bench_suite

    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.microbench",
        description="time depth-1 label solves on suite circuits",
    )
    parser.add_argument(
        "--circuits",
        nargs="+",
        default=None,
        metavar="NAME",
        help="suite circuits to bench (default: the quick subset)",
    )
    parser.add_argument("--k", type=int, default=5, help="LUT input bound")
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="runs per circuit; best-of is reported (default 3)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write BENCH_microbench.json under this directory",
    )
    args = parser.parse_args(argv)
    names = args.circuits or bench_suite.quick_subset()
    results = [
        bench_circuit(bench_suite.build(name), k=args.k, repeats=args.repeats)
        for name in names
    ]
    print(render(results))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "BENCH_microbench.json")
        atomic_write_json(path, as_table(results), indent=2, sort_keys=False)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
