"""Regression gate: compare a perf report against a committed baseline.

Usage::

    python -m repro.perf.check benchmarks/baseline.json current.json \
        --tolerance 0.25

Compares every ``(circuit, algorithm)`` run present in *both* reports:

* **phi** — any increase is a quality regression (hard fail; the whole
  point of the paper is clock period, and phi is a small integer);
* **luts** — an increase beyond ``--tolerance`` (default 25%) fails;
* **seconds** — noisy across machines, so by default a slowdown beyond
  the tolerance is only *warned* about; pass ``--time-tolerance`` to turn
  the time comparison into a hard gate (e.g. on a dedicated perf host);
* **counters** — ``stats.flow_queries``, ``stats.updates``,
  ``stats.dinic_phases`` and ``stats.arcs_advanced`` are *deterministic*
  work measures (unlike wall clock), so a growth beyond
  ``--counter-tolerance`` (default 10%) is a hard fail; the
  persistent-cache counters (``outcome_cache_hits``,
  ``cache_probes_skipped``, ``cache_seeds``) join them, gated in the
  *opposite* direction — they count saved work, so a drop beyond the
  tolerance is the failure (a warm run that stops hitting the cache has
  lost its fast path).  Pass ``--no-counters`` to skip counter checks
  entirely.

Resilience-aware (schema 2): a *degraded* current run (its budget
expired, so its phi/luts are best-known values rather than proven
optima) is flagged but its quality deltas only *warn* by default —
a budget expiry is an environmental condition, not a quality
regression.  Structured ``errors`` entries in the current report are
likewise flagged as warnings.  Pass ``--strict-resilience`` to turn
both into hard failures (e.g. on a dedicated perf host where nothing
should ever degrade).

Exit status: 0 clean, 1 on regressions (or on an unusable comparison —
e.g. no overlapping runs, which would otherwise pass vacuously).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.perf.report import load_report

RunKey = Tuple[str, str]  # (circuit, algorithm)


@dataclass
class Comparison:
    """Outcome of one baseline/current comparison."""

    regressions: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    compared: int = 0

    @property
    def ok(self) -> bool:
        return self.compared > 0 and not self.regressions


def _index(report: dict) -> Dict[RunKey, dict]:
    runs = {}
    for run in report.get("runs", []):
        runs[(str(run.get("circuit")), str(run.get("algorithm")))] = run
    return runs


#: Deterministic LabelStats counters gated by ``counter_tolerance``.
#: ``dinic_phases`` / ``arcs_advanced`` are zero whenever every cut is
#: read off the expansion frontier (all default ``extra_depth=0`` runs)
#: and the gate skips counters with a zero/absent baseline, so they only
#: bite on deeper searches.
GATED_COUNTERS = (
    "flow_queries",
    "updates",
    "dinic_phases",
    "arcs_advanced",
    "outcome_cache_hits",
    "cache_probes_skipped",
    "cache_seeds",
)

#: Gated counters where *shrinking* is the regression: these count work
#: saved — probes the persistent outcome cache adopted, skipped or
#: seeded — so a drop means a fast path decayed.  They are zero on
#: cold/cache-less runs, and the gate skips zero-baseline counters, so
#: they only bite on warm-vs-warm comparisons (e.g. the CI cache-smoke
#: job's second pass).
INVERTED_COUNTERS = frozenset({
    "outcome_cache_hits",
    "cache_probes_skipped",
    "cache_seeds",
})


def compare(
    baseline: dict,
    current: dict,
    tolerance: float = 0.25,
    time_tolerance: Optional[float] = None,
    strict_resilience: bool = False,
    counter_tolerance: Optional[float] = 0.10,
) -> Comparison:
    """Compare two perf reports; see the module docstring for the policy."""
    base_runs = _index(baseline)
    cur_runs = _index(current)
    result = Comparison()
    for err in current.get("errors", []):
        message = (
            f"{err.get('circuit')}/{err.get('algorithm')}: cell failed "
            f"({err.get('error')}: {err.get('message')}, "
            f"stage {err.get('stage')})"
        )
        if strict_resilience:
            result.regressions.append(message)
        else:
            result.warnings.append(message)
    for key in sorted(base_runs):
        if key not in cur_runs:
            continue
        circuit, algo = key
        tag = f"{circuit}/{algo}"
        base, cur = base_runs[key], cur_runs[key]
        result.compared += 1

        # A degraded run's phi/luts are best-known values under an
        # exhausted budget, not the search's proven optimum: quality
        # deltas only warn (unless the gate is strict about resilience).
        degraded = bool(cur.get("degraded"))
        quality_sink = (
            result.regressions
            if strict_resilience or not degraded
            else result.warnings
        )
        if degraded:
            reason = cur.get("degraded_reason") or "budget"
            result.warnings.append(f"{tag}: degraded run ({reason})")

        b_phi, c_phi = base.get("phi"), cur.get("phi")
        if b_phi is not None and c_phi is not None:
            if c_phi > b_phi:
                quality_sink.append(
                    f"{tag}: phi regressed {b_phi} -> {c_phi}"
                    + (" (degraded run)" if degraded else "")
                )
            elif c_phi < b_phi:
                result.improvements.append(
                    f"{tag}: phi improved {b_phi} -> {c_phi}"
                )

        b_luts, c_luts = base.get("luts"), cur.get("luts")
        if b_luts and c_luts is not None:
            if c_luts > b_luts * (1.0 + tolerance):
                quality_sink.append(
                    f"{tag}: luts regressed {b_luts} -> {c_luts} "
                    f"(> {tolerance:.0%} tolerance)"
                    + (" (degraded run)" if degraded else "")
                )
            elif c_luts < b_luts:
                result.improvements.append(
                    f"{tag}: luts improved {b_luts} -> {c_luts}"
                )

        b_sec, c_sec = base.get("seconds"), cur.get("seconds")
        if b_sec and c_sec is not None:
            gate = time_tolerance if time_tolerance is not None else tolerance
            if c_sec > b_sec * (1.0 + gate):
                message = (
                    f"{tag}: time {b_sec:.3f}s -> {c_sec:.3f}s "
                    f"(> {gate:.0%} tolerance)"
                )
                if time_tolerance is not None:
                    result.regressions.append(message)
                else:
                    result.warnings.append(message)

        if counter_tolerance is not None:
            b_stats = base.get("stats") or {}
            c_stats = cur.get("stats") or {}
            for counter in GATED_COUNTERS:
                b_val, c_val = b_stats.get(counter), c_stats.get(counter)
                if not b_val or c_val is None:
                    continue
                if counter in INVERTED_COUNTERS:
                    regressed = c_val < b_val * (1.0 - counter_tolerance)
                    improved = c_val > b_val
                else:
                    regressed = c_val > b_val * (1.0 + counter_tolerance)
                    improved = c_val < b_val
                if regressed:
                    quality_sink.append(
                        f"{tag}: {counter} regressed {b_val} -> {c_val} "
                        f"(> {counter_tolerance:.0%} tolerance)"
                        + (" (degraded run)" if degraded else "")
                    )
                elif improved:
                    result.improvements.append(
                        f"{tag}: {counter} improved {b_val} -> {c_val}"
                    )
    return result


def render(comparison: Comparison) -> str:
    lines = [f"compared {comparison.compared} run(s)"]
    for text in comparison.improvements:
        lines.append(f"  improved: {text}")
    for text in comparison.warnings:
        lines.append(f"  WARNING:  {text}")
    for text in comparison.regressions:
        lines.append(f"  REGRESSION: {text}")
    lines.append("status: " + ("OK" if comparison.ok else "FAIL"))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.check",
        description="compare a perf report against a committed baseline",
    )
    parser.add_argument("baseline", help="baseline report JSON")
    parser.add_argument("current", help="current report JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="relative slack for LUT count (default 0.25)",
    )
    parser.add_argument(
        "--time-tolerance",
        type=float,
        default=None,
        help="gate on run time too, with this relative slack "
        "(default: time slowdowns only warn)",
    )
    parser.add_argument(
        "--strict-resilience",
        action="store_true",
        help="hard-fail on degraded runs and structured error entries "
        "(default: flag them as warnings)",
    )
    parser.add_argument(
        "--counter-tolerance",
        type=float,
        default=0.10,
        help="relative slack for the deterministic work counters "
        "(stats.flow_queries, stats.updates, stats.dinic_phases, "
        "stats.arcs_advanced; default 0.10)",
    )
    parser.add_argument(
        "--no-counters",
        action="store_true",
        help="skip the counter comparison entirely",
    )
    args = parser.parse_args(argv)
    try:
        baseline = load_report(args.baseline)
        current = load_report(args.current)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    comparison = compare(
        baseline,
        current,
        tolerance=args.tolerance,
        time_tolerance=args.time_tolerance,
        strict_resilience=args.strict_resilience,
        counter_tolerance=None if args.no_counters else args.counter_tolerance,
    )
    print(render(comparison))
    if comparison.compared == 0:
        print(
            "error: no overlapping (circuit, algorithm) runs to compare",
            file=sys.stderr,
        )
        return 1
    return 0 if comparison.ok else 1


if __name__ == "__main__":
    sys.exit(main())
