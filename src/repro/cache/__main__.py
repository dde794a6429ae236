"""Maintenance CLI of the persistent outcome cache.

``python -m repro.cache <command>`` (also mounted as ``turbosyn
cache``):

* ``stats DIR``    — entry count, byte size, and counter snapshot;
* ``clear DIR``    — delete every entry (the directory survives);
* ``audit DIR``    — run the CACHE001-003 integrity pack and render
  its findings; exit 1 on any ERROR;
* ``warmcheck FIRST SECOND`` — compare a cold suite report against a
  warm re-run of the same suite: the second pass must report cache
  hits, strictly fewer flow queries, and bit-identical phi per run
  (the CI cache-smoke contract).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro.cache.store import OutcomeCache


def _cmd_stats(args: argparse.Namespace) -> int:
    cache = OutcomeCache(args.dir)
    print(json.dumps(cache.stats(), indent=2, sort_keys=True))
    return 0


def _cmd_clear(args: argparse.Namespace) -> int:
    removed = OutcomeCache(args.dir).clear()
    print(f"cleared {removed} cache entries from {args.dir}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis.cacherules import audit_cache
    from repro.analysis.engine import Severity

    diags = audit_cache(args.dir, select=args.select)
    for diag in diags:
        print(diag.render())
    errors = sum(1 for d in diags if d.severity is Severity.ERROR)
    print(
        f"cache audit: {len(diags)} findings ({errors} errors) "
        f"in {args.dir}"
    )
    return 1 if errors else 0


def warm_run_deltas(
    first: dict, second: dict
) -> Tuple[List[str], List[str]]:
    """Compare a cold report against its warm re-run.

    Returns ``(problems, lines)``: hard contract violations, and a
    per-run summary table.  The contract: the warm pass serves cached
    outcomes (``outcome_cache_hits > 0`` summed over runs), performs
    strictly fewer max-flow queries than the cold pass, and reproduces
    every phi bit-identically.
    """
    problems: List[str] = []
    lines: List[str] = []

    def index(report: dict) -> dict:
        return {
            (run["circuit"], run["algorithm"]): run
            for run in report["runs"]
        }

    cold, warm = index(first), index(second)
    if set(cold) != set(warm):
        problems.append(
            f"run sets differ: cold has {sorted(set(cold) - set(warm))} "
            f"extra, warm has {sorted(set(warm) - set(cold))} extra"
        )
    total_hits = 0
    total_cold_flow = total_warm_flow = 0
    for run_key in sorted(set(cold) & set(warm)):
        crun, wrun = cold[run_key], warm[run_key]
        if crun["phi"] != wrun["phi"]:
            problems.append(
                f"{run_key}: phi drifted {crun['phi']} -> {wrun['phi']}"
            )
        hits = int(wrun["stats"].get("outcome_cache_hits", 0))
        cold_flow = int(crun["stats"].get("flow_queries", 0))
        warm_flow = int(wrun["stats"].get("flow_queries", 0))
        total_hits += hits
        total_cold_flow += cold_flow
        total_warm_flow += warm_flow
        lines.append(
            f"{run_key[0]:<12} {run_key[1]:<9} phi={crun['phi']:<4} "
            f"flow {cold_flow:>6} -> {warm_flow:<6} hits={hits} "
            f"seconds {crun['seconds']:.3f} -> {wrun['seconds']:.3f}"
        )
    if total_hits <= 0:
        problems.append("warm pass reported no outcome_cache_hits")
    if total_warm_flow >= total_cold_flow:
        problems.append(
            f"warm pass did not reduce flow queries "
            f"({total_cold_flow} -> {total_warm_flow})"
        )
    lines.append(
        f"TOTAL flow {total_cold_flow} -> {total_warm_flow}, "
        f"cache hits {total_hits}"
    )
    return problems, lines


def _cmd_warmcheck(args: argparse.Namespace) -> int:
    from repro.perf.report import load_report

    problems, lines = warm_run_deltas(
        load_report(args.first), load_report(args.second)
    )
    for line in lines:
        print(line)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("warmcheck OK: cached outcomes served, phi bit-identical")
    return 1 if problems else 0


def build_parser(prog: str = "repro.cache") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog, description="outcome-cache maintenance"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="entry/byte/counter snapshot")
    p_stats.add_argument("dir", help="cache directory")
    p_stats.set_defaults(func=_cmd_stats)

    p_clear = sub.add_parser("clear", help="delete every cache entry")
    p_clear.add_argument("dir", help="cache directory")
    p_clear.set_defaults(func=_cmd_clear)

    p_audit = sub.add_parser(
        "audit", help="run the CACHE001-003 integrity pack"
    )
    p_audit.add_argument("dir", help="cache directory")
    p_audit.add_argument(
        "--select",
        nargs="*",
        default=None,
        help="restrict to specific rule ids (default: all)",
    )
    p_audit.set_defaults(func=_cmd_audit)

    p_warm = sub.add_parser(
        "warmcheck",
        help="assert a warm suite re-run saved work and kept phi",
    )
    p_warm.add_argument("first", help="cold-pass suite report (JSON)")
    p_warm.add_argument("second", help="warm-pass suite report (JSON)")
    p_warm.set_defaults(func=_cmd_warmcheck)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
