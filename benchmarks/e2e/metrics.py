"""How the benchmark turns samples into metrics.

Pure functions over plain numbers and op records, shared by the runner,
the compare tool and the tests; nothing here imports :mod:`repro`.

An *op record* is one mapping request's outcome: a dict with
``circuit``, ``algorithm``, ``seconds`` (batch: the op's wall-clock;
serve: latency from the job's due time), ``phi``, ``luts``, ``error``
(``None`` or why the op failed outright) and ``problems`` (failed output
checks).
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

#: Well-formed metric and workload names.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Tail percentiles tried, highest first, and how many samples must lie
#: beyond one before it is reported.
TAIL_PERCENTILES = (99, 95, 90)
MIN_BEYOND = 10

#: The end-to-end metrics of the full report, in print order.
END_TO_END = ("setup_s", "wall_s", "op_geomean_s", "op_p50_s", "op_p90_s",
              "ack_p90_s", "fail_ratio", "phi_sum", "luts_sum", "peak_rss_mb")

#: End-to-end metrics of the full report that ``BENCHMARK.json`` does not
#: list, with their units and the bound ``compare.py`` applies.  Every
#: metric listed there must exist, non-zero, on every workload and stay
#: within its bound across seeds.  These do not: the serve tails exist on
#: serve-open only; a batch ``op_p50_s`` is a single circuit's time and
#: spread 0.23 between seeds on cold-syn; the exact checks differ between
#: seeds and must not move at all on one (``fail_ratio`` is 0 on a good
#: run).
REPORT_ONLY: Dict[str, dict] = {
    "op_p50_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "op_p90_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "ack_p90_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "fail_ratio": {"unit": "ratio", "better": "lower", "bound": 0.0},
    "phi_sum": {"unit": "count", "better": "lower", "bound": 0.0},
    "luts_sum": {"unit": "count", "better": "lower", "bound": 0.0},
}


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> Optional[int]:
    """The highest tail percentile with at least ``MIN_BEYOND`` of ``n``
    samples beyond it, or ``None`` when the sample is too small."""
    for p in TAIL_PERCENTILES:
        if n - max(1, math.ceil(p / 100.0 * n)) >= MIN_BEYOND:
            return p
    return None


def p90(values: Sequence[float]) -> Optional[float]:
    """p90 when the sample supports a tail percentile, else ``None``."""
    return percentile(values, 90) if tail_percentile(len(values)) else None


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def quartiles(values: Sequence[float]) -> "tuple[float, float, float]":
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (a single value is its own quartiles)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def failed(op: dict) -> bool:
    """An op fails when it raised, was refused or degraded, or any of its
    output checks failed."""
    return op.get("error") is not None or bool(op.get("problems"))


def accounting(ops: Sequence[dict]) -> "tuple[int, int]":
    """``(attempted, failed)`` over a run's op records."""
    return len(ops), sum(1 for op in ops if failed(op))


def distinct_sums(ops: Sequence[dict]) -> "tuple[int, int]":
    """``(phi_sum, luts_sum)`` over distinct (circuit, algorithm) ops that
    produced a mapping (the first occurrence of each counts)."""
    seen = {}
    for op in ops:
        key = (op["circuit"], op["algorithm"])
        if key not in seen and op.get("phi") is not None:
            seen[key] = (op["phi"], op["luts"])
    return (
        sum(phi for phi, _ in seen.values()),
        sum(luts for _, luts in seen.values()),
    )


def per_op_medians(passes: Iterable[Sequence[dict]]) -> Dict[str, float]:
    """Median seconds of each ``circuit/algorithm`` op across passes."""
    times: Dict[str, List[float]] = {}
    for ops in passes:
        for op in ops:
            if op.get("error") is None:
                key = f"{op['circuit']}/{op['algorithm']}"
                times.setdefault(key, []).append(op["seconds"])
    return {key: statistics.median(v) for key, v in times.items()}
