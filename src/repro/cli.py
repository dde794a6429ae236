"""Command line interface: ``turbosyn <command>``.

Commands
--------
``map``
    Map a BLIF circuit with TurboSYN / TurboMap / FlowSYN-s, report the
    minimum clock period (MDR ratio) and LUT count, optionally write the
    mapped + pipelined/retimed network back to BLIF.
``stats``
    Print a circuit's retiming-graph statistics and MDR bound.
``gen``
    Emit one of the built-in benchmark suite circuits as BLIF.
``suite``
    Run all three mappers over the benchmark suite and print Table-1-style
    rows (the full harness with timing lives in ``benchmarks/``).
``verify``
    Check two BLIF circuits for behavioural equivalence (lag-aligned
    random simulation; exact BDD comparison for combinational pairs).
``critical``
    Criticality analysis: exact MDR ratio, the binding loops, label
    slack distribution.
``dot``
    Export a circuit as Graphviz DOT (optionally highlighting the
    critical cycle).
``lint``
    Static analysis: run the structural rule pack over BLIF circuits and
    report diagnostics as text, JSON or SARIF 2.1.0
    (:mod:`repro.analysis`).
``serve``
    Run the crash-only mapping service (:mod:`repro.serve`): HTTP job
    intake with admission control, a write-ahead job journal, and
    ``kill -9``-safe resumption of in-flight jobs.
``serve-chaos``
    The crash-recovery differential: run a suite cold, re-run it while
    SIGKILLing the served process at a fault point, restart,
    and assert every job recovers bit-identically (the CI smoke job).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.analysis.sanrules import SanitizerViolation
from repro.bench import suite as bench_suite
from repro.core.expanded import DEFAULT_MAX_COPIES
from repro.core.flowsyn_s import flowsyn_s
from repro.core.turbomap import turbomap
from repro.core.turbosyn import turbosyn
from repro.netlist.blif import read_blif_file, write_blif_file
from repro.netlist.validate import ValidationError, ensure_mappable
from repro.resilience.budget import Budget, BudgetExhausted
from repro.retime.mdr import mdr_ratio, min_feasible_period
from repro.retime.pipeline import pipeline_and_retime

_ALGOS = {
    "turbosyn": lambda c, k, chk, b, opts, cache=None: turbosyn(
        c, k, check=chk, budget=b, cache=cache, **opts
    ),
    "turbomap": lambda c, k, chk, b, opts, cache=None: turbomap(
        c, k, check=chk, budget=b, cache=cache, **opts
    ),
    "flowsyn-s": lambda c, k, chk, b, opts, cache=None: flowsyn_s(
        c, k, check=chk
    ),
}


def _budget_from(args: argparse.Namespace) -> Optional[Budget]:
    """A fresh per-run Budget from ``--timeout`` / ``--probe-timeout``."""
    if args.timeout is None and args.probe_timeout is None:
        return None
    return Budget(deadline=args.timeout, probe_timeout=args.probe_timeout)


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget per mapper run; on expiry the best-known "
        "feasible phi is reported, marked degraded",
    )
    parser.add_argument(
        "--probe-timeout",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget per feasibility probe (one label "
        "computation)",
    )


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help="persistent outcome cache directory (repro.cache): probe "
        "verdicts and labels are reused across runs and processes, "
        "bit-identical results; defaults to $REPRO_CACHE when set",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent outcome cache even when "
        "$REPRO_CACHE is set",
    )


def _cache_from(args: argparse.Namespace):
    """An :class:`repro.cache.OutcomeCache` from ``--cache``/``$REPRO_CACHE``.

    ``--no-cache`` wins over both; returns ``None`` when no cache is in
    play (the mappers then run exactly as before).
    """
    import os

    if getattr(args, "no_cache", False):
        return None
    root = getattr(args, "cache", None) or os.environ.get("REPRO_CACHE")
    if not root:
        return None
    from repro.cache import OutcomeCache

    return OutcomeCache(root)


def _add_label_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-copies",
        type=int,
        default=DEFAULT_MAX_COPIES,
        metavar="N",
        help="safety bound on the partial-expansion size per flow query "
        f"(default {DEFAULT_MAX_COPIES})",
    )


def _cmd_map(args: argparse.Namespace) -> int:
    from repro.netlist.blif import BlifError

    try:
        circuit, _info = read_blif_file(args.circuit)
        ensure_mappable(circuit, args.k)
    except (OSError, BlifError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = _cache_from(args)
    t0 = time.perf_counter()
    try:
        result = _ALGOS[args.algo](
            circuit, args.k, not args.no_check,
            _budget_from(args), {"max_copies": args.max_copies}, cache,
        )
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    verified = (
        " verified" if result.certificate and result.certificate["verified"] else ""
    )
    degraded = (
        f" DEGRADED({result.degraded_reason})" if result.degraded else ""
    )
    print(
        f"{circuit.name}: algo={args.algo} K={args.k} "
        f"phi={result.phi} luts={result.n_luts} cpu={elapsed:.2f}s"
        f"{verified}{degraded}"
    )
    if args.report:
        from repro.perf import report as perf_report

        run = perf_report.mapper_run(result, circuit, seconds=elapsed)
        perf_report.write_report(
            perf_report.suite_report([run], k=args.k, kind="map"), args.report
        )
        print(f"wrote report {args.report}")
    final = result.mapped
    if args.retime:
        pipe = pipeline_and_retime(final)
        final = pipe.circuit
        lags = ", ".join(f"{n}:+{l}" for n, l in pipe.po_lags.items() if l)
        print(
            f"retimed to clock period {pipe.circuit.clock_period()}"
            + (f" (output lags: {lags})" if lags else "")
        )
    if args.out:
        write_blif_file(final, args.out)
        print(f"wrote {args.out}")
    if args.verilog:
        from repro.netlist.verilog import write_verilog_file

        write_verilog_file(final, args.verilog)
        print(f"wrote {args.verilog}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.netlist.stats import lut_profile, profile, render_profile

    circuit, _info = read_blif_file(args.circuit)
    print(render_profile(profile(circuit)))
    print(f"MDR bound (retiming + pipelining): {min_feasible_period(circuit)}")
    print(f"exact MDR ratio: {mdr_ratio(circuit)}")
    if args.luts:
        info = lut_profile(circuit)
        print(
            f"LUT profile: fill {info['fill_histogram']}, "
            f"avg {info['average_inputs']:.2f} inputs, "
            f"{info['npn_classes']} NPN classes"
        )
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    circuit = bench_suite.build(args.name)
    write_blif_file(circuit, args.out)
    print(f"wrote {args.out}: {circuit.stats()}")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    """Run the Table-1 sweep under the suite fault boundary.

    Every (circuit, algorithm) cell is isolated: a failing cell becomes
    a structured error entry in the report (exit status 1) instead of
    aborting the sweep, ``--report`` doubles as an incremental
    checkpoint rewritten atomically after every cell, and ``--resume``
    skips cells a previous (partial or errored) report already
    completed.
    """
    from repro.perf.report import load_report

    if args.circuit:
        names = list(args.circuit)
    elif args.quick:
        names = bench_suite.quick_subset()
    else:
        names = [e.name for e in bench_suite.SUITE]
    algos = args.algo or list(_ALGOS)
    resume = None
    if args.resume:
        try:
            resume = load_report(args.resume)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    header = f"{'circuit':10s} {'GATE':>6s} {'FF':>5s} | "
    header += " | ".join(f"{a:>18s}" for a in algos)
    print(header)

    row: dict = {"name": None, "cells": [], "gates": None, "ffs": None}

    def flush_row() -> None:
        if row["name"] is None:
            return
        gates = f"{row['gates']:6d}" if row["gates"] is not None else f"{'?':>6s}"
        ffs = f"{row['ffs']:5d}" if row["ffs"] is not None else f"{'?':>5s}"
        print(
            f"{row['name']:10s} {gates} {ffs} | "
            + " | ".join(f"{cell:>18s}" for cell in row["cells"])
        )
        row.update(name=None, cells=[], gates=None, ffs=None)

    def on_cell(
        name: str,
        algo: str,
        run: Optional[dict],
        error: Optional[dict],
        elapsed: float,
        cached: bool,
    ) -> None:
        if name != row["name"]:
            flush_row()
            row["name"] = name
        if run is not None:
            row["gates"] = run.get("gates", row["gates"])
            row["ffs"] = run.get("ffs", row["ffs"])
            mark = "*" if run.get("degraded") else ""
            shown = "  cached" if cached else f"{elapsed:7.1f}s"
            row["cells"].append(f"phi={run['phi']:2d}{mark} {shown}")
        else:
            assert error is not None
            row["cells"].append(f"ERR:{error['error']}")

    try:
        report = bench_suite.run_suite_report(
            names=names,
            k=args.k,
            algorithms=algos,
            check=not args.no_check,
            timeout=args.timeout,
            probe_timeout=args.probe_timeout,
            checkpoint=args.report,
            resume=resume,
            on_cell=on_cell,
            max_copies=args.max_copies,
            cache=_cache_from(args),
        )
    except ValueError as exc:  # unknown benchmark or algorithm name
        flush_row()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    flush_row()
    if args.report:
        print(f"wrote report {args.report}")
    if report["errors"]:
        for err in report["errors"]:
            print(
                f"error: {err['circuit']}/{err['algorithm']} failed at "
                f"stage {err['stage']}: {err['error']}: {err['message']}",
                file=sys.stderr,
            )
        print(
            f"{len(report['errors'])} cell(s) failed; the report is "
            "complete for the rest (re-run with --resume to retry)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.bdd_equiv import combinational_equivalent
    from repro.verify.equiv import simulation_equivalent

    a, _ = read_blif_file(args.golden)
    b, _ = read_blif_file(args.revised)
    sequential = any(w for *_e, w in a.edges()) or any(
        w for *_e, w in b.edges()
    )
    if not sequential:
        ok = combinational_equivalent(a, b)
        print(f"combinational BDD check: {'EQUIVALENT' if ok else 'DIFFERENT'}")
        return 0 if ok else 1
    lags = {}
    if args.lag:
        for item in args.lag:
            name, _sep, value = item.partition("=")
            lags[name] = int(value)
    ok = simulation_equivalent(
        a, b, cycles=args.cycles, warmup=args.warmup, po_lags=lags
    )
    print(
        f"simulation check ({args.cycles} cycles, warmup {args.warmup}): "
        f"{'EQUIVALENT' if ok else 'DIFFERENT'}"
    )
    return 0 if ok else 1


def _cmd_critical(args: argparse.Namespace) -> int:
    from repro.core.slack import report

    circuit, _ = read_blif_file(args.circuit)
    print(report(circuit, k=args.k))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.netlist.dot import write_dot_file
    from repro.retime.mdr import critical_ratio_cycle

    circuit, _ = read_blif_file(args.circuit)
    highlight = None
    if args.highlight_critical:
        highlight = critical_ratio_cycle(circuit)
    write_dot_file(circuit, args.out, highlight=highlight)
    print(f"wrote {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve the crash-only mapping service (``repro.serve``)."""
    from repro.serve.__main__ import main as serve_main

    argv = [
        "--state-dir", args.state_dir,
        "--host", args.host,
        "--port", str(args.port),
        "--max-active", str(args.max_active),
        "--max-queue", str(args.max_queue),
    ]
    return serve_main(argv)


def _cmd_serve_chaos(args: argparse.Namespace) -> int:
    """The crash-recovery differential as a one-shot command (CI smoke).

    Runs a small suite cold, then again under a SIGKILL fault plan with
    restarts, and exits non-zero unless every job recovers to a
    bit-identical result signature.
    """
    import json as json_mod
    import os
    import tempfile

    from repro.resilience.atomic import atomic_write_json
    from repro.serve.chaos import demo_blif, run_kill_differential

    with tempfile.TemporaryDirectory(prefix="serve-chaos-") as scratch:
        if args.circuit:
            paths = list(args.circuit)
        else:
            # Self-contained: deterministic demo circuits, quick to map
            # but with real sequential feedback and multi-probe searches.
            paths = []
            for index, seed in enumerate((5, 9)):
                path = os.path.join(scratch, f"demo{index}.blif")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(demo_blif(args.gates, seed=seed))
                paths.append(path)
        state_root = args.state_dir or os.path.join(scratch, "state")
        report = run_kill_differential(
            state_root,
            paths,
            algorithms=tuple(args.algo) if args.algo else ("turbomap",),
            kill_site=args.kill_site,
            kill_at=args.kill_at,
            timeout=args.timeout,
            k=args.k,
        )
        if args.report:
            atomic_write_json(args.report, report, indent=2)
        if args.events_log and os.path.exists(report.get("journal", "")):
            # Preserve the structured job-event log (the chaos journal)
            # before the scratch state directory is discarded.
            with open(report["journal"], encoding="utf-8") as fh:
                with open(args.events_log, "w", encoding="utf-8") as out:
                    out.write(fh.read())
        verdict = "bit-identical" if report["ok"] else "MISMATCH"
        print(
            f"serve-chaos [{report['kill_site']}@{report['kill_at']}]: "
            f"{report['chaos']['jobs'] if 'chaos' in report else 0} jobs, "
            f"{report.get('chaos', {}).get('restarts', 0)} restart(s) "
            f"after SIGKILL -> {verdict}"
        )
        if not report["ok"]:
            print(json_mod.dumps(report.get("mismatches", report), indent=2))
        return 0 if report["ok"] else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    """Delegate to the cache CLI (``python -m repro.cache``)."""
    from repro.cache.__main__ import main as cache_main

    return cache_main(args.cache_args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turbosyn",
        description="TurboSYN reproduction: FPGA synthesis with retiming "
        "and pipelining (Cong & Wu, DAC 1997)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="map a BLIF circuit onto K-LUTs")
    p_map.add_argument("circuit", help="input BLIF file")
    p_map.add_argument("--algo", choices=sorted(_ALGOS), default="turbosyn")
    p_map.add_argument("-k", type=int, default=5, help="LUT input count")
    p_map.add_argument("--out", help="write the mapped network as BLIF")
    p_map.add_argument(
        "--verilog", help="write the mapped network as structural Verilog"
    )
    p_map.add_argument(
        "--retime",
        action="store_true",
        help="pipeline + retime the mapped network before writing",
    )
    p_map.add_argument(
        "--report", metavar="OUT.json", help="write a JSON run report"
    )
    p_map.add_argument(
        "--no-check",
        action="store_true",
        help="skip post-mapping invariant verification (repro.analysis)",
    )
    _add_budget_arguments(p_map)
    _add_label_arguments(p_map)
    _add_cache_arguments(p_map)
    p_map.set_defaults(func=_cmd_map)

    p_stats = sub.add_parser("stats", help="show retiming-graph statistics")
    p_stats.add_argument("circuit", help="input BLIF file")
    p_stats.add_argument(
        "--luts",
        action="store_true",
        help="also print the LUT fill / NPN-class profile",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_gen = sub.add_parser("gen", help="generate a benchmark circuit")
    p_gen.add_argument(
        "name", choices=[e.name for e in bench_suite.SUITE]
    )
    p_gen.add_argument("out", help="output BLIF file")
    p_gen.set_defaults(func=_cmd_gen)

    p_suite = sub.add_parser("suite", help="run the Table-1 sweep")
    p_suite.add_argument("-k", type=int, default=5)
    p_suite.add_argument(
        "--quick", action="store_true", help="only the small circuits"
    )
    p_suite.add_argument(
        "--circuit",
        action="append",
        metavar="NAME",
        help="restrict to one benchmark (repeatable; overrides --quick)",
    )
    p_suite.add_argument(
        "--resume",
        metavar="REPORT.json",
        help="skip cells already completed in this previous report "
        "(e.g. a checkpoint left by an interrupted --report run)",
    )
    p_suite.add_argument(
        "--algo",
        action="append",
        choices=sorted(_ALGOS),
        help="restrict to an algorithm (repeatable; default: all three)",
    )
    p_suite.add_argument(
        "--report", metavar="OUT.json", help="write a JSON run report"
    )
    p_suite.add_argument(
        "--no-check",
        action="store_true",
        help="skip post-mapping invariant verification (repro.analysis)",
    )
    _add_budget_arguments(p_suite)
    _add_label_arguments(p_suite)
    _add_cache_arguments(p_suite)
    p_suite.set_defaults(func=_cmd_suite)

    p_verify = sub.add_parser("verify", help="equivalence-check two BLIFs")
    p_verify.add_argument("golden", help="reference BLIF")
    p_verify.add_argument("revised", help="circuit under check")
    p_verify.add_argument("--cycles", type=int, default=128)
    p_verify.add_argument("--warmup", type=int, default=16)
    p_verify.add_argument(
        "--lag",
        action="append",
        metavar="PO=N",
        help="expected latency of an output (repeatable)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_crit = sub.add_parser("critical", help="criticality / slack analysis")
    p_crit.add_argument("circuit", help="input BLIF file")
    p_crit.add_argument("-k", type=int, default=5)
    p_crit.set_defaults(func=_cmd_critical)

    p_dot = sub.add_parser("dot", help="export Graphviz DOT")
    p_dot.add_argument("circuit", help="input BLIF file")
    p_dot.add_argument("out", help="output .dot file")
    p_dot.add_argument(
        "--highlight-critical",
        action="store_true",
        help="fill the nodes of one MDR-critical cycle",
    )
    p_dot.set_defaults(func=_cmd_dot)

    p_serve = sub.add_parser(
        "serve",
        help="serve the crash-only mapping service over HTTP "
        "(write-ahead journal, admission control)",
    )
    p_serve.add_argument("--state-dir", required=True,
                         help="durable state: journal, store, results")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8731,
                         help="TCP port (0 picks a free one)")
    p_serve.add_argument("--max-active", type=int, default=1,
                         help="concurrent worker lanes")
    p_serve.add_argument("--max-queue", type=int, default=8,
                         help="admission-control bound on pending jobs")
    p_serve.set_defaults(func=_cmd_serve)

    p_chaos = sub.add_parser(
        "serve-chaos",
        help="crash-recovery differential: SIGKILL the service mid-suite, "
        "restart, assert bit-identical results",
    )
    p_chaos.add_argument("--circuit", action="append", default=[],
                         help="BLIF file(s); default: built-in demo circuits")
    p_chaos.add_argument("--gates", type=int, default=60,
                         help="demo-circuit size when no --circuit given")
    p_chaos.add_argument("-k", type=int, default=4, help="LUT input count")
    p_chaos.add_argument("--algo", action="append", default=[],
                         choices=sorted(_ALGOS),
                         help="algorithm(s); default turbomap")
    p_chaos.add_argument("--kill-site", default="journal-append",
                         help="fault-injection site to SIGKILL at")
    p_chaos.add_argument("--kill-at", type=int, default=3,
                         help="matching hits to skip before the kill")
    p_chaos.add_argument("--state-dir", default=None,
                         help="keep state here instead of a temp dir")
    p_chaos.add_argument("--timeout", type=float, default=300.0)
    p_chaos.add_argument("--report", default=None,
                         help="write the differential report JSON here")
    p_chaos.add_argument("--events-log", default=None,
                         help="copy the chaos journal (job-event log) here")
    p_chaos.set_defaults(func=_cmd_serve_chaos)

    p_cache = sub.add_parser(
        "cache",
        help="inspect the persistent outcome cache "
        "(stats / clear / audit / warmcheck)",
    )
    p_cache.add_argument(
        "cache_args",
        nargs=argparse.REMAINDER,
        metavar="...",
        help="arguments for `python -m repro.cache` "
        "(e.g. `stats DIR`, `clear DIR`, `audit DIR`, "
        "`warmcheck COLD.json WARM.json`)",
    )
    p_cache.set_defaults(func=_cmd_cache)

    from repro.analysis.cli import add_lint_arguments, run_lint

    p_lint = sub.add_parser(
        "lint",
        help="lint BLIF circuits (text / JSON / SARIF 2.1.0 diagnostics)",
    )
    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=run_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except SanitizerViolation as exc:
        # An invariant hook armed by REPRO_SANITIZE=1 caught corrupted
        # engine state; the diagnostic names the rule, the location,
        # and the evidence.
        print(f"sanitizer: {exc.diagnostic.render()}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Long-running commands (notably ``suite``) flush their
        # checkpoint before the interrupt reaches this handler, so a
        # Ctrl-C loses at most the cell in flight.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
