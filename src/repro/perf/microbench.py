"""Kernel microbenchmarks: flow solve, expansion, and handoff bytes.

Usage::

    python -m repro.perf.microbench --circuits bbara dk16 \
        --out benchmarks/results

Times the hot kernel stages across the engine matrix using the
deterministic ``LabelStats`` telemetry the solver already collects:

* **flow** — aggregate min-cut solve time (``stats.t_flow``) and query
  count per flow engine (``dinic`` vs ``ek``) on an identical label
  workload, plus the Dinic work counters (``dinic_phases``,
  ``arcs_advanced``);
* **expansion** — partial-expansion time (``stats.t_expand``) per copy
  representation (``compiled`` CSR vs ``object`` tuples);
* **handoff** — startup bytes a parallel phi probe ships per worker:
  the pickled stripped circuit, the raw CSR blob, and the pickled
  :class:`~repro.kernel.share.CsrHandle` for each transport.

Every configuration runs the same ``(circuit, k, phi)`` label queries
(phi fixed at each circuit's known optimum via a reference run), and the
resulting labels are asserted identical across the whole matrix — a
configuration that diverged would make its timings meaningless.  Every
run uses ``extra_depth=1`` (:data:`EXTRA_DEPTH`): at the default 0 no
query has candidate copies, every cut is read off the expansion
frontier, and there is no flow solve to time.

Results go to stdout as a table and to ``BENCH_microbench.json``
(``bench-table`` schema, like the pytest-benchmark tables in
``benchmarks/results/``).  The CI microbench smoke job runs this on the
quick subset and archives the JSON.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
import time
from typing import Any, Dict, List, Optional

from repro.compat import HAVE_NUMPY
from repro.core.labels import LabelSolver
from repro.kernel.expand import PackedCutArena, PackedExpansion, cut_on_packed
from repro.perf.report import SCHEMA_VERSION
from repro.resilience.atomic import atomic_write_json

#: (flow, kernel) pairs timed by :func:`bench_circuit` — the reference
#: configuration (old engine) first, then the default, then the numpy
#: batch kernel (skipped when the ``[vector]`` extra is missing: it
#: would silently fall back to ``compiled`` and report a duplicate).
MATRIX = (
    ("ek", "object"),
    ("ek", "compiled"),
    ("dinic", "object"),
    ("dinic", "compiled"),
) + ((("dinic", "vector"),) if HAVE_NUMPY else ())

#: Expansion depth of every matrix run: the shallowest at which cut
#: queries have candidate copies and so reach the flow engines.
EXTRA_DEPTH = 1

#: Batch widths (stacked queries per arena solve) of the crossover sweep.
SWEEP_WIDTHS = (4, 16, 64)

#: Per-query network sizes (expansion copies) of the crossover sweep.
SWEEP_SIZES = (64, 256, 1024)


def _solve(circuit, k: int, phi: int, flow: str, kernel: str):
    """One label run at fixed phi; returns the outcome (timed stats)."""
    solver = LabelSolver(
        circuit, k, phi, flow=flow, kernel=kernel, extra_depth=EXTRA_DEPTH
    )
    return solver.run()


def _find_phi(circuit, k: int) -> int:
    """The smallest feasible phi, via a linear scan with the reference
    engine (the workload every matrix cell then replays)."""
    phi = 1
    while True:
        if _solve(circuit, k, phi, "ek", "object").feasible:
            return phi
        phi += 1


def handoff_bytes(circuit) -> Dict[str, int]:
    """Startup bytes per worker for each handoff strategy."""
    from repro.kernel.share import publish_csr

    compiled = circuit.compiled()
    sizes: Dict[str, int] = {
        # What a spawn-start worker receives without the kernel layer:
        # the full (derived-cache-stripped) circuit object graph.
        "pickled_circuit": len(pickle.dumps(circuit)),
        "csr_blob": len(compiled.to_bytes()),
    }
    handle = publish_csr(compiled)
    try:
        sizes[f"handle_{handle.transport}"] = handle.pickled_size()
    finally:
        handle.unlink()
    return sizes


_MASK64 = (1 << 64) - 1


def synthetic_expansion(
    nodes: int, seed: int, shift: int = 20
) -> PackedExpansion:
    """A deterministic pseudo-random DAG expansion with ``nodes`` copies.

    The crossover sweep (and the kernel differential tests) need many
    independent cut networks of controlled size without paying a label
    run per network.  Copies ``1..nodes-1`` each pick one or two
    parents among the already-emitted expandable copies via a 64-bit
    LCG seeded from ``seed`` — same seed, same expansion, on every
    platform.  Roughly the first 40% of copies become interior, the
    next ~12% candidates, the rest leaves, mimicking the deep-cone
    shape of real partial expansions (an INF core, a thin cuttable
    band, a wide source frontier).
    """
    state = (seed * 0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03) & _MASK64

    def rnd(n: int) -> int:
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) & _MASK64
        return (state >> 33) % n

    exp = PackedExpansion(root=0, shift=shift)
    exp.interior.append(0)
    expandable = [0]
    n_interior = max(1, (nodes * 2) // 5)
    n_candidate = max(1, nodes // 8)
    for i in range(1, nodes):
        if i <= n_interior:
            tier = exp.interior
        elif i <= n_interior + n_candidate:
            tier = exp.candidates
        else:
            tier = exp.leaves
        for _ in range(1 + rnd(2)):
            exp.edges.append(i)
            exp.edges.append(expandable[rnd(len(expandable))])
        tier.append(i)
        if tier is not exp.leaves:
            expandable.append(i)
    return exp


def crossover_sweep(
    widths: Optional[Any] = None,
    sizes: Optional[Any] = None,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Scalar-vs-batched Dinic grid over (batch width x network size).

    Each grid cell stacks ``width`` synthetic expansions of ``nodes``
    copies apiece and times the full query burst both ways: a scalar
    :func:`cut_on_packed` loop (arena recycled, as the compiled kernel
    runs it) against one :func:`~repro.kernel.batch.solve_batch` call
    (arena build + level-BFS solve, as the vector kernel runs it).
    Cuts are asserted identical before any timing is trusted.  Best-of
    ``repeats`` per side, like the matrix cells.

    Returns the envelope payload ``repro.kernel.batch.crossover_nodes``
    reads: the grid rows plus ``crossover_nodes`` — the smallest
    network size whose widest-batch speedup, and that of every larger
    size measured, favours the vector kernel (``None`` when the scalar
    loop wins everywhere: auto then always resolves to ``compiled``).
    :func:`confirm_crossover` then checks that verdict against real
    label solves.
    """
    if widths is None:
        widths = SWEEP_WIDTHS
    if sizes is None:
        sizes = SWEEP_SIZES
    if not HAVE_NUMPY:
        return {
            "numpy": False,
            "widths": list(widths),
            "sizes": list(sizes),
            "grid": [],
            "crossover_nodes": None,
        }
    from repro.kernel.batch import BatchCutArena, solve_batch

    grid: List[Dict[str, Any]] = []
    for width in widths:
        for nodes in sizes:
            queries = []
            for q in range(width):
                seed = width * 1_000_003 + nodes * 97 + q
                queries.append((synthetic_expansion(nodes, seed), 3 + q % 4))
            scalar_arena = PackedCutArena(flow="dinic")
            t_scalar = float("inf")
            scalar_cuts: List[Any] = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                scalar_cuts = [
                    cut_on_packed(exp, lim, scalar_arena)
                    for exp, lim in queries
                ]
                t_scalar = min(t_scalar, time.perf_counter() - t0)
            batch_arena = BatchCutArena()
            t_vector = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                batch_cuts = solve_batch(queries, batch_arena)
                t_vector = min(t_vector, time.perf_counter() - t0)
                if batch_cuts != scalar_cuts:
                    raise RuntimeError(
                        f"sweep cell width={width} nodes={nodes}: batched "
                        "cuts diverged from scalar — timings meaningless"
                    )
            grid.append(
                {
                    "width": width,
                    "nodes": nodes,
                    "t_scalar_us": round(1e6 * t_scalar, 2),
                    "t_vector_us": round(1e6 * t_vector, 2),
                    "speedup": round(t_scalar / t_vector, 3),
                }
            )
    # Crossover in network size, judged at the widest batch measured
    # (narrow batches never amortize the numpy call overhead, and the
    # label engine only batches wide rounds anyway): the smallest size
    # where the vector kernel wins and keeps winning at every larger
    # measured size.
    widest = max(widths)
    crossover: Optional[int] = None
    for row in grid:
        if row["width"] != widest:
            continue
        if row["speedup"] >= 1.0:
            if crossover is None:
                crossover = row["nodes"]
        else:
            crossover = None
    return {
        "numpy": True,
        "widths": list(widths),
        "sizes": list(sizes),
        "grid": grid,
        "crossover_nodes": crossover,
    }


def confirm_crossover(
    sweep: Dict[str, Any], results: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """The sweep, its crossover kept only where real label solves agree.

    The sweep's sizes are flow-network copies, but ``--kernel auto``
    compares ``crossover_nodes`` against a circuit's node count, and
    real cut networks stay small (a few dozen copies at
    ``extra_depth=1``, even on the 5,000-node suite circuit).  So the
    crossover stands only if ``dinic+vector`` beat ``dinic+compiled``
    in the matrix (:func:`bench_circuit` rows) on a benched circuit of
    at least that many nodes.  Otherwise ``crossover_nodes`` becomes
    ``None`` and the sweep's verdict is kept as
    ``unconfirmed_crossover_nodes``.
    """
    crossover = sweep.get("crossover_nodes")
    if crossover is None:
        return sweep
    for res in results:
        cells = res["cells"]
        vector = cells.get("dinic+vector")
        if (
            res["nodes"] >= crossover
            and vector is not None
            and vector["t_total"] < cells["dinic+compiled"]["t_total"]
        ):
            return sweep
    return dict(
        sweep, crossover_nodes=None, unconfirmed_crossover_nodes=crossover
    )


def bench_circuit(
    circuit,
    k: int = 5,
    phi: Optional[int] = None,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Benchmark one circuit across the engine matrix.

    Returns one row dict per matrix cell (timings are the best of
    ``repeats`` runs — microbenchmarks gate on minima, not means, to
    shed scheduler noise) plus the handoff byte counts.
    """
    if phi is None:
        phi = _find_phi(circuit, k)
    reference: Optional[List[int]] = None
    cells: Dict[str, Dict[str, Any]] = {}
    for flow, kernel in MATRIX:
        best: Optional[Dict[str, Any]] = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            outcome = _solve(circuit, k, phi, flow, kernel)
            wall = time.perf_counter() - t0
            if not outcome.feasible:
                raise RuntimeError(
                    f"{circuit.name}: phi={phi} infeasible under "
                    f"flow={flow} kernel={kernel}"
                )
            if reference is None:
                reference = outcome.labels
            elif outcome.labels != reference:
                raise RuntimeError(
                    f"{circuit.name}: labels diverged under "
                    f"flow={flow} kernel={kernel} — timings meaningless"
                )
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
        queries = best["flow_queries"] or 1
        best["us_per_query"] = 1e6 * best["t_flow"] / queries
        cells[f"{flow}+{kernel}"] = best
    return {
        "circuit": circuit.name,
        "nodes": len(circuit),
        "k": k,
        "phi": phi,
        "cells": cells,
        "handoff": handoff_bytes(circuit),
    }


def as_table(
    results: List[Dict[str, Any]],
    envelope: Optional[Dict[str, Any]] = None,
) -> dict:
    """The ``BENCH_microbench.json`` payload (bench-table schema).

    ``envelope`` carries machine-derived operating guidance alongside
    the raw rows — today the :func:`crossover_sweep` result under
    ``"crossover"``, which ``repro.kernel.batch.crossover_nodes`` reads
    to resolve ``--kernel auto``.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    for res in results:
        for cell, sample in res["cells"].items():
            row = dict(sample)
            row["phi"] = res["phi"]
            rows[f"{res['circuit']}/{cell}"] = row
        for strategy, size in res["handoff"].items():
            rows.setdefault(f"{res['circuit']}/handoff", {})[strategy] = size
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "bench-table",
        "table": "microbench",
        "rows": rows,
    }
    if envelope is not None:
        payload["envelope"] = envelope
    return payload


def render(results: List[Dict[str, Any]]) -> str:
    lines = ["== kernel microbench =="]
    header = (
        f"{'circuit/config':<24s} | {'t_flow':>9s} | {'t_expand':>9s} | "
        f"{'queries':>8s} | {'us/query':>9s} | {'phases':>7s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for res in results:
        for cell, s in res["cells"].items():
            lines.append(
                f"{res['circuit'] + '/' + cell:<24s} | "
                f"{s['t_flow']:>8.4f}s | {s['t_expand']:>8.4f}s | "
                f"{s['flow_queries']:>8d} | {s['us_per_query']:>9.1f} | "
                f"{s['dinic_phases']:>7d}"
            )
        parts = ", ".join(
            f"{name}={size}" for name, size in res["handoff"].items()
        )
        lines.append(f"{res['circuit'] + '/handoff':<24s} | {parts} bytes")
    return "\n".join(lines)


def render_sweep(sweep: Dict[str, Any]) -> str:
    lines = ["== scalar vs batched Dinic crossover =="]
    if not sweep.get("numpy", False):
        lines.append("numpy unavailable: sweep skipped, crossover=None")
        return "\n".join(lines)
    header = (
        f"{'width':>6s} | {'nodes':>6s} | {'scalar us':>10s} | "
        f"{'vector us':>10s} | {'speedup':>8s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in sweep["grid"]:
        lines.append(
            f"{row['width']:>6d} | {row['nodes']:>6d} | "
            f"{row['t_scalar_us']:>10.1f} | {row['t_vector_us']:>10.1f} | "
            f"{row['speedup']:>8.3f}"
        )
    lines.append(f"crossover_nodes = {sweep['crossover_nodes']}")
    if "unconfirmed_crossover_nodes" in sweep:
        lines.append(
            f"(the grid alone says {sweep['unconfirmed_crossover_nodes']}; "
            "no benched circuit that large ran faster under dinic+vector)"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.bench import suite as bench_suite

    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.microbench",
        description="time the kernel engine matrix on suite circuits",
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
        help="runs per matrix cell; best-of is reported (default 3)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write BENCH_microbench.json under this directory",
    )
    parser.add_argument(
        "--no-sweep",
        action="store_true",
        help="skip the scalar-vs-batched crossover sweep",
    )
    args = parser.parse_args(argv)
    names = args.circuits or bench_suite.quick_subset()
    results = []
    for name in names:
        circuit = bench_suite.build(name)
        results.append(bench_circuit(circuit, k=args.k, repeats=args.repeats))
    print(render(results))
    envelope = None
    if not args.no_sweep:
        sweep = confirm_crossover(
            crossover_sweep(repeats=args.repeats), results
        )
        envelope = {"crossover": sweep}
        print(render_sweep(sweep))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "BENCH_microbench.json")
        atomic_write_json(
            path, as_table(results, envelope), indent=2, sort_keys=False
        )
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
