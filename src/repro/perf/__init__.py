"""Performance subsystem: run telemetry and the regression gate.

* :mod:`repro.perf.report` — the JSON run-report schema: per-run mapper
  telemetry and suite-level reports (the ``BENCH_*.json`` trajectory);
* :mod:`repro.perf.check` — the regression gate compared against a
  committed baseline (``python -m repro.perf.check``);
* :mod:`repro.perf.microbench` — depth-1 label-solve microbenchmark
  (``python -m repro.perf.microbench``).
"""

from repro.perf.report import (
    SCHEMA_VERSION,
    load_report,
    mapper_run,
    suite_report,
    write_report,
)

__all__ = [
    "SCHEMA_VERSION",
    "load_report",
    "mapper_run",
    "suite_report",
    "write_report",
]
