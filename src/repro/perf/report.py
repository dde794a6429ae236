"""JSON run reports: the machine-readable perf/quality telemetry schema.

Schema (version 10) — one *suite report* wraps any number of *mapper
runs* plus the structured *errors* of cells that failed::

    {
      "schema": 10,
      "kind": "suite",                 # or "map" for a single-run report
      "python": "3.11.7", "platform": "Linux-...",
      "k": 5,
      "service": {                     # v6: set when the runs came out
                                       # of a served instance
        "state_dir": "...",            # (repro.serve); None/absent for
        "journal": {...}, "stats": {...},   # offline sweeps
        "recovered": {...}
      },
      "cache": {                       # v8: snapshot of the persistent
        "entries": 16, "hits": 32,     # outcome cache (repro.cache) the
        "misses": 0, "seeds": 5, ...   # sweep ran against; None/absent
      },                               # for cache-less runs
      "runs": [
        {
          "circuit": "bbara", "algorithm": "turbomap",
          "job": {                     # v6: the serving envelope — only
            "id": "j000017",           # on runs executed as service jobs
            "attempts": 2,             # 1 + crash replays (probes a
                                       # replay adopted from the cache
                                       # count in "stats" below)
            "signature": "sha256..."   # result content signature (the
                                       # crash-recovery differential key)
          },
          "gates": 462, "ffs": 10,     # input circuit size
          "phi": 5, "luts": 522,       # quality (lower is better)
          "seconds": 0.61,             # end-to-end wall clock
          "degraded": false,           # true: phi is best-known, not
                                       # proven optimal (budget expired);
                                       # adds "degraded_reason"
          "search": {
            "t_search": 0.55, "t_mapping": 0.06,
            "probes": [3, 4, 5, 10, 20], "n_probes": 5
          },
          "stats": {                   # aggregated LabelStats telemetry
            "rounds": ..., "updates": ..., "flow_queries": ...,
            "cache_hits": ..., "pld_checks": ...,
            "resyn_calls": ..., "resyn_wins": ...,
            "warm_seeded": ..., "warm_savings": ...,
            "expansions_reused": ...,
            "dinic_phases": ..., "arcs_advanced": ...,
            "outcome_cache_hits": ..., # v8: persistent-cache telemetry —
            "cache_probes_skipped": ...,  # probes adopted from / skipped
            "cache_seeds": ...,        # via repro.cache, and probes the
                                       # cache seeded (zero without it)
            "t_total": ..., "t_expand": ..., "t_flow": ..., "t_pld": ...
          }
        }, ...
      ],
      "errors": [                      # cells the fault boundary caught
        {
          "circuit": "dk16", "algorithm": "turbomap",
          "error": "InjectedFault",    # exception type name
          "message": "...", "stage": "map", "elapsed": 0.31
        }, ...
      ]
    }

:func:`load_report` reads version 10 only and names the schema of
anything else in its ``ValueError``.  Version 10 dropped the probe
process count and the search-backend attempt count when the phi search
went down to one sequential search (version 9 had dropped the
``engine`` / ``flow`` / ``kernel`` fields); regenerate older reports
with the current code.  Older version-10 runs may still carry an
``incremental`` flag and four incremental-repair counters in ``stats``;
they load, and nothing reads them.

``benchmarks/baseline.json`` is a committed suite report; CI regenerates
a fresh one and gates on :mod:`repro.perf.check`.  The pytest-benchmark
harness writes per-table ``BENCH_*.json`` siblings of the rendered text
tables (see ``benchmarks/conftest.py``) so the perf trajectory is
diffable across PRs.  All path writes go through
:func:`repro.resilience.atomic.atomic_write_json`, so an interrupted
writer never corrupts a previously good report.
"""

from __future__ import annotations

import dataclasses
import json
import platform
from typing import IO, Dict, List, Optional, Union

from repro.resilience.atomic import atomic_write_json

SCHEMA_VERSION = 10


def _environment() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def mapper_run(
    result,
    circuit=None,
    seconds: Optional[float] = None,
    job: Optional[dict] = None,
) -> dict:
    """Serialize one :class:`~repro.core.driver.SeqMapResult` to a dict.

    ``circuit`` (the *input* circuit) adds size context; ``seconds``
    records the caller's end-to-end wall clock (defaults to the result's
    own search + mapping time).  ``job`` (schema 6) attaches the serving
    envelope when the run executed as a :mod:`repro.serve` job: id,
    attempts (1 + crash replays) and result signature.
    """
    run: dict = {
        "circuit": circuit.name if circuit is not None else result.mapped.name,
        "algorithm": result.algorithm,
        "phi": result.phi,
        "luts": result.n_luts,
        "seconds": round(
            seconds if seconds is not None else result.t_total, 6
        ),
        "search": {
            "t_search": round(result.t_search, 6),
            "t_mapping": round(result.t_mapping, 6),
            "t_verify": round(getattr(result, "t_verify", 0.0), 6),
            "probes": sorted(result.outcomes),
            "n_probes": len(result.outcomes),
        },
        "stats": {
            key: (round(value, 6) if isinstance(value, float) else value)
            for key, value in dataclasses.asdict(result.total_stats).items()
        },
    }
    if job is not None:
        run["job"] = dict(job)
    run["degraded"] = bool(getattr(result, "degraded", False))
    if run["degraded"]:
        run["degraded_reason"] = getattr(result, "degraded_reason", None)
    events = getattr(result, "resilience_events", None)
    if events:
        run["resilience_events"] = events
    if circuit is not None:
        run["gates"] = circuit.n_gates
        run["ffs"] = circuit.n_ffs
    cert = getattr(result, "certificate", None)
    if cert is not None:
        # Record that the run was verified, without the full finding list
        # (reports stay small; `repro lint` re-derives details on demand).
        run["certificate"] = {
            key: cert[key]
            for key in ("verified", "rules", "errors", "warnings", "t_verify")
            if key in cert
        }
        # Compact summaries of the independent certificates (the full
        # blobs — offsets, witness cycles — stay on the result object).
        sched = cert.get("schedule_certificate")
        if isinstance(sched, dict):
            run["certificate"]["schedule_certificate"] = {
                key: sched[key]
                for key in ("phi", "feasible", "makespan")
                if key in sched
            }
        cyc = cert.get("cycle_certificate")
        if isinstance(cyc, dict):
            run["certificate"]["cycle_certificate"] = {
                key: cyc[key]
                for key in ("phi", "feasible", "ratio", "bound")
                if key in cyc
            }
    return run


def error_entry(
    circuit: str,
    algorithm: str,
    exc: BaseException,
    stage: str = "map",
    elapsed: float = 0.0,
) -> dict:
    """A structured error record for a failed (circuit, algorithm) cell."""
    return {
        "circuit": circuit,
        "algorithm": algorithm,
        "error": type(exc).__name__,
        "message": str(exc),
        "stage": stage,
        "elapsed": round(elapsed, 6),
    }


def suite_report(
    runs: List[dict],
    k: Optional[int] = None,
    kind: str = "suite",
    errors: Optional[List[dict]] = None,
    service: Optional[dict] = None,
    cache: Optional[dict] = None,
) -> dict:
    """Wrap mapper runs in a schema-versioned report envelope.

    ``service`` (schema 6) attaches the serving envelope — the
    :meth:`repro.serve.service.MappingService.health` snapshot of the
    instance the runs came out of — for reports assembled from served
    jobs; offline sweeps carry ``null``.  ``cache`` (schema 8) attaches
    a :meth:`repro.cache.OutcomeCache.stats` snapshot when the sweep
    ran against a persistent outcome cache; cache-less runs carry
    ``null``.
    """
    report = {"schema": SCHEMA_VERSION, "kind": kind}
    report.update(_environment())
    if k is not None:
        report["k"] = k
    report["service"] = dict(service) if service is not None else None
    report["cache"] = dict(cache) if cache is not None else None
    report["runs"] = runs
    report["errors"] = list(errors) if errors else []
    return report


def write_report(report: dict, path_or_file: Union[str, IO[str]]) -> None:
    """Write a report as pretty-printed JSON (trailing newline included).

    Path targets are written atomically (temp sibling + ``os.replace``),
    so an interrupted write leaves any previous report intact.
    """
    if hasattr(path_or_file, "write"):
        json.dump(report, path_or_file, indent=2, sort_keys=False)
        path_or_file.write("\n")
        return
    atomic_write_json(path_or_file, report, indent=2, sort_keys=False)


def load_report(path: str) -> dict:
    """Read a schema-10 report; anything else raises ``ValueError``."""
    with open(path) as fh:
        data = json.load(fh)
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: report schema {schema!r}, expected {SCHEMA_VERSION}"
        )
    if not isinstance(data.get("runs"), list):
        raise ValueError(f"{path}: not a perf report (missing 'runs' list)")
    return data
