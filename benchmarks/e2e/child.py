"""One batch pass in a fresh process (run by ``run.py``, not by hand).

Usage: ``python child.py SPEC_JSON`` where the spec holds ``mode``
(``setup`` or ``pass``), ``workload``, ``seed``, ``cache`` (an outcome
cache directory or null), ``trace``, ``t_spawn`` (the parent's
``perf_counter`` when it started this process) and ``out`` (where the
result JSON goes).

Set-up (imports, circuit building, cache open) runs from process start
to the first timed op.  A pass then times each op -- one mapper call
with ``K=5``, ``workers=1`` and the default verifier on, then
``pipeline_and_retime`` of the mapped network, as ``repro map --retime``
does -- and checks every output after the last op, untimed.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

import tracing
import workloads


def main(argv) -> int:
    spec = json.loads(argv[1])
    workloads.use_checkout_sources()
    import repro.retime.pipeline as pipeline
    from repro.cache.store import OutcomeCache
    from repro.core.turbomap import turbomap
    from repro.core.turbosyn import turbosyn

    mappers = {"turbomap": turbomap, "turbosyn": turbosyn}
    ops = workloads.batch_ops(spec["workload"])
    circuits = {}
    for name, _algo in ops:
        if name not in circuits:
            circuits[name] = workloads.build_circuit(name, spec["seed"])
    cache = OutcomeCache(spec["cache"]) if spec["cache"] else None
    tracer = tracing.Tracer() if spec["trace"] else None

    def op_span(name: str, algo: str):
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.span("op", op=f"{name}:{algo}")

    t_first = time.perf_counter()
    result = {"setup_s": t_first - spec["t_spawn"]}
    if spec["mode"] == "pass":
        records, outputs = [], []
        with contextlib.ExitStack() as patches:
            if tracer is not None:
                patches.enter_context(tracing.installed(tracer))
            for name, algo in ops:
                op = {"circuit": name, "algorithm": algo, "phi": None,
                      "luts": None, "error": None, "problems": []}
                t0 = time.perf_counter()
                try:
                    with op_span(name, algo):
                        mapped = mappers[algo](
                            circuits[name], workloads.K,
                            workers=1, check=True, cache=cache,
                        )
                        pipe = pipeline.pipeline_and_retime(mapped.mapped)
                    op["phi"], op["luts"] = mapped.phi, mapped.n_luts
                    outputs.append((op, mapped, pipe))
                except Exception as exc:  # noqa: BLE001 -- a failed op
                    op["error"] = f"{type(exc).__name__}: {exc}"
                op["seconds"] = time.perf_counter() - t0
                records.append(op)
        result["pass_s"] = time.perf_counter() - t_first
        if tracer is not None:
            result["spans"] = tracer.snapshot()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec["mode"] == "pass":
        for op, mapped, pipe in outputs:
            if mapped.degraded:
                op["problems"].append(f"degraded ({mapped.degraded_reason})")
            op["problems"] += workloads.check_mapping(mapped.mapped, mapped.phi, pipe)
        result["ops"] = records
    tmp = spec["out"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["out"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
