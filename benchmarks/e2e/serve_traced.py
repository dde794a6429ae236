"""``python -m repro.serve`` with the benchmark's layer spans installed.

Usage: ``python serve_traced.py SPANS_JSON -- SERVE_ARGS...``

Installs :data:`tracing.TARGETS` plus a hook on ``Journal.append`` that
ties each lane's spans to the job it runs: a ``start`` record opens a
``serve.job`` span on the appending thread and the job's terminal record
closes it, so every span in between carries the job id.  On SIGTERM the
finished spans are written to ``SPANS_JSON`` and the process exits.
"""

from __future__ import annotations

import json
import os
import signal
import sys

import tracing
import workloads

TERMINAL = ("done", "fail", "cancelled")


def journal_hook(tracer: tracing.Tracer):
    """Patch factory for ``Journal.append``: a span per record, tagged
    with the record's type and job, and the lane's ``serve.job`` span."""

    def factory(original):
        def append(self, record):
            kind, job = record.get("type"), record.get("job")
            index = tracer.begin("serve.journal_append", type=kind, job=job)
            try:
                return original(self, record)
            finally:
                tracer.end(index)
                if kind == "start":
                    tracer.begin("serve.job", op=job)
                elif kind in TERMINAL:
                    top = tracer.current()
                    if top >= 0 and tracer.spans[top][tracing.OP] == job:
                        tracer.end(top)

        return append

    return factory


def main(argv) -> int:
    spans_path, sep, *serve_args = argv[1:]
    if sep != "--":
        sys.stderr.write(__doc__)
        return 2
    workloads.use_checkout_sources()
    tracer = tracing.Tracer()

    def dump(signum, frame):
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
        os._exit(0)

    signal.signal(signal.SIGTERM, dump)
    from repro.serve.__main__ import main as serve_main

    extra = [("repro.serve.journal", "Journal.append", journal_hook(tracer))]
    with tracing.installed(tracer, extra=extra):
        return serve_main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
