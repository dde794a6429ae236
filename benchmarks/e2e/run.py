"""End-to-end benchmark of the TurboSYN mapper: cold, warm and served.

Run one workload::

    python3 benchmarks/e2e/run.py --workload cold-syn --seed 3 --seconds 15 --trace 0

or every workload, writing full results (and, with ``--trace``, the
per-layer tables and Chrome traces) to a directory::

    python3 benchmarks/e2e/run.py --seed 0 --out DIR [--trace]

Every metric is printed by name with its unit, and every output is
checked; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status 1 means an op
failed or an output check did.  See ``README.md`` for the workloads and
what each metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional

import metrics
import openloop
import tracing
import workloads

CHILD = os.path.join(workloads.HERE, "child.py")
SERVE_TRACED = os.path.join(workloads.HERE, "serve_traced.py")
WORK_ROOT = os.path.join(workloads.ROOT, ".bench_e2e")

#: Hard limits that keep a stuck run from hanging.
CHILD_TIMEOUT = 150.0
SERVER_START_TIMEOUT = 60.0
JOB_TIMEOUT = 120.0
MAX_PASSES = 50

#: Set-ups per run besides the measured pass's (or stream's) own;
#: ``setup_s`` is the median of all.  Half run before the measurement and
#: half after, so one slow stretch of a shared host does not set it.
EXTRA_SETUPS = 6


def load_benchmark() -> dict:
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def host_facts() -> dict:
    """What a result is only comparable under (``compare.py`` refuses
    to compare across different facts)."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "cpu_model": cpu, "python": platform.python_version(),
            "machine": platform.machine(), "system": platform.system()}


# ---------------------------------------------------------------------------
# batch workloads
# ---------------------------------------------------------------------------

def run_child(work: str, mode: str, workload: str, seed: int,
              cache: Optional[str] = None, trace: bool = False) -> dict:
    """One fresh child process (``child.py``); its result dict."""
    fd, out = tempfile.mkstemp(prefix="child-", suffix=".json", dir=work)
    os.close(fd)
    spec = {"mode": mode, "workload": workload, "seed": seed, "cache": cache,
            "trace": trace, "out": out, "t_spawn": time.perf_counter()}
    proc = subprocess.run(
        [sys.executable, CHILD, json.dumps(spec)], env=workloads.child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} {mode} child exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def pass_loop(run_pass: Callable[[int], dict], seconds: float,
              min_passes: int) -> List[dict]:
    """Run passes until the next one would end past ``seconds``
    (predicted from the last one's length), at least ``min_passes``."""
    results: List[dict] = []
    t0 = time.perf_counter()
    while len(results) < MAX_PASSES:
        started = time.perf_counter()
        results.append(run_pass(len(results)))
        now = time.perf_counter()
        if len(results) >= min_passes and (now - t0) + (now - started) > seconds:
            break
    return results


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              work: str) -> dict:
    expected = workloads.load_expected()
    cache = reference = None
    setup_base = 0.0
    fill_ops: List[dict] = []
    warm = workload == "warm-mix"
    if warm:
        # Set-up fills the cache with one cold pass; its results are the
        # reference every warm replay must reproduce.  Its passes supply
        # the set-up samples.
        cache = os.path.join(work, "cache")
        fill = run_child(work, "pass", workload, seed, cache=cache)
        setup_base = fill["setup_s"] + fill["pass_s"]
        fill_ops = fill["ops"]
        reference = {(op["circuit"], op["algorithm"]): op for op in fill_ops}

    def extra_setups(n: int) -> List[float]:
        return [run_child(work, "setup", workload, seed)["setup_s"] for _ in range(n)]

    def run_pass(i: int) -> dict:
        traced = trace and i % 2 == 1
        result = run_child(work, "pass", workload, seed, cache=cache, trace=traced)
        result["traced"] = traced
        return result

    setups = [] if warm else extra_setups(EXTRA_SETUPS // 2)
    passes = pass_loop(run_pass, seconds, 2 if trace else 1)
    setups += [] if warm else extra_setups(EXTRA_SETUPS - EXTRA_SETUPS // 2)
    all_ops = fill_ops + [op for p in passes for op in p["ops"]]
    for op in all_ops:
        ref = None if reference is None else reference.get((op["circuit"], op["algorithm"]))
        if op["phi"] is not None:
            op["problems"] += workloads.check_against_expected(op, seed, expected, ref)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    setups += [setup_base + p["setup_s"] for p in plain]
    op_times = list(metrics.per_op_medians(p["ops"] for p in plain).values())
    samples = [op["seconds"] for p in plain for op in p["ops"] if op["error"] is None]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["pass_s"] for p in plain),
        "op_geomean_s": _stat(metrics.geomean, op_times),
        "op_p50_s": _stat(statistics.median, op_times),
        "op_p90_s": metrics.p90(samples),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
    }
    info = {"passes": len(plain), "op_samples": len(samples)}
    if workload == "warm-mix":
        info["fill_s"] = setup_base
    out = {"values": values, "info": info, "ops": all_ops,
           "passes": [_pass_summary(p) for p in passes]}
    if traced:
        tables = [tracing.layer_metrics(p["spans"]) for p in traced]
        layers = {k: statistics.median(t[k] for t in tables) for k in tables[0]}
        layers["trace.overhead_ratio"] = (
            statistics.median(p["pass_s"] for p in traced) / values["wall_s"] - 1.0
        )
        out["layers"] = layers
        out["trace"] = [(f"pass {i} (traced)", p["spans"]) for i, p in enumerate(traced)]
    return out


def _stat(fn: Callable, values: List[float]) -> Optional[float]:
    """``fn(values)``, or ``None`` when every op failed."""
    return fn(values) if values else None


def _pass_summary(p: dict) -> dict:
    return {
        "traced": p["traced"], "setup_s": p["setup_s"], "pass_s": p["pass_s"],
        "peak_rss_mb": p["peak_rss_mb"],
        "ops": [{k: op[k] for k in ("circuit", "algorithm", "seconds", "phi", "luts",
                                    "error", "problems")} for op in p["ops"]],
    }


# ---------------------------------------------------------------------------
# serve-open
# ---------------------------------------------------------------------------

class Server:
    """One ``python -m repro.serve`` process on a fresh state directory
    (traced through ``serve_traced.py`` when asked)."""

    def __init__(self, work: str, traced: bool = False) -> None:
        from repro.serve.client import ServeClient

        self.state = tempfile.mkdtemp(prefix="serve-", dir=work)
        self.spans_path = self.state + "-spans.json" if traced else None
        args = ["--state-dir", self.state, "--port", "0",
                "--max-active", "1", "--max-queue", "256"]
        if traced:
            cmd = [sys.executable, SERVE_TRACED, self.spans_path, "--", *args]
        else:
            cmd = [sys.executable, "-m", "repro.serve", *args]
        self.t_spawn = time.perf_counter()
        self._stderr = open(self.state + "-stderr.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._stderr, text=True,
            env=workloads.child_env(), cwd=workloads.ROOT,
        )
        watchdog = threading.Timer(SERVER_START_TIMEOUT, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        found = re.search(r"listening on ([0-9.]+):([0-9]+)", line)
        if found is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.client = ServeClient(found.group(1), int(found.group(2)), timeout=JOB_TIMEOUT)

    def warm_up(self) -> float:
        """Run the untimed set-up job; seconds since this server's spawn."""
        view = self.client.submit(blif=workloads.warmup_blif(), algorithm="turbomap",
                                  k=workloads.K)
        self.client.wait(view["id"], timeout=JOB_TIMEOUT)
        return time.perf_counter() - self.t_spawn

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> Optional[list]:
        """SIGTERM, wait, and return the traced server's spans."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        if self.spans_path and os.path.exists(self.spans_path):
            with open(self.spans_path, encoding="utf-8") as fh:
                return json.load(fh)
        return None


def serve_stream(work: str, jobs: List[dict], traced: bool) -> dict:
    """Start a server, warm it up, run the open loop, check the outputs."""
    server = Server(work, traced)
    try:
        setup_s = server.warm_up()

        def submit(job: dict) -> dict:
            return server.client.submit(blif=job["blif"], algorithm=job["algorithm"],
                                        k=workloads.K)

        def wait(job_id: str) -> dict:
            return server.client.wait(job_id, timeout=JOB_TIMEOUT)

        records, _t0 = openloop.run_open_loop(jobs, submit, wait)
        rss = server.peak_rss_mb()
        ops = openloop.latency_ops(records)
        check_served(server.client, ops, jobs)
    finally:
        spans = server.stop()
    return {"setup_s": setup_s, "records": records, "ops": ops, "peak_rss_mb": rss,
            "spans": spans}


def check_served(client, ops: List[dict], jobs: List[dict]) -> None:
    """Re-parse each served mapping and check it like a batch output;
    repeats must reproduce their first run, and TurboSYN may not lose to
    TurboMap on the same circuit."""
    from repro.core.turbomap import turbomap
    from repro.netlist.blif import read_blif

    blifs = {job["circuit"]: job["blif"] for job in jobs}
    first: Dict[tuple, tuple] = {}
    map_phi: Dict[str, int] = {}
    for op in ops:
        if op["error"] is not None:
            continue
        artifact = client.result(op["job_id"])
        mapped, _info = read_blif(artifact["mapped_blif"])
        op["problems"] += workloads.check_mapping(mapped, op["phi"])
        key = (op["circuit"], op["algorithm"])
        got = (op["phi"], op["luts"])
        if first.setdefault(key, got) != got:
            op["problems"].append(f"repeat gave phi/luts {got}, first run {first[key]}")
        if op["algorithm"] == "turbosyn":
            name = op["circuit"]
            if name not in map_phi:
                circuit, _ = read_blif(blifs[name])
                map_phi[name] = turbomap(circuit, workloads.K, check=False).phi
            if op["phi"] > map_phi[name]:
                op["problems"].append(
                    f"TurboSYN phi {op['phi']} > TurboMap phi {map_phi[name]}"
                )


def server_setup(work: str) -> float:
    """One extra server start with its warm-up job (a set-up sample)."""
    server = Server(work)
    try:
        return server.warm_up()
    finally:
        server.stop()


def run_serve(seed: int, seconds: float, trace: bool, work: str) -> dict:
    jobs = workloads.serve_jobs(seed, seconds)
    setups = [server_setup(work) for _ in range(EXTRA_SETUPS // 2)]
    plain = serve_stream(work, jobs, traced=False)
    setups.append(plain["setup_s"])
    setups += [server_setup(work) for _ in range(EXTRA_SETUPS - EXTRA_SETUPS // 2)]
    ops = plain["ops"]
    latencies = [op["seconds"] for op in ops if op["error"] is None]
    acks = [op["ack_s"] for op in ops if "ack_s" in op]
    records = plain["records"]
    # wall_s spans first due time to last terminal state: a backlog that
    # grows over the run shows here.
    last_done = _stat(max, [r["done"] for r in records if "done" in r])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": None if last_done is None else last_done - records[0]["due"],
        "op_geomean_s": _stat(metrics.geomean, latencies),
        "op_p50_s": _stat(statistics.median, latencies),
        "op_p90_s": metrics.p90(latencies),
        "ack_p90_s": metrics.p90(acks),
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    info = {
        "jobs": len(jobs),
        "op_samples": len(latencies),
        "gen_lag_max_s": max(r["sent"] - r["due"] for r in records),
    }
    out = {"values": values, "info": info, "ops": ops}
    if trace:
        traced = serve_stream(work, jobs, traced=True)
        ops += traced["ops"]
        layers = tracing.layer_metrics(traced["spans"])
        traced_p50 = statistics.median(
            op["seconds"] for op in traced["ops"] if op["error"] is None
        )
        layers["trace.overhead_ratio"] = traced_p50 / values["op_p50_s"] - 1.0
        out["layers"] = layers
        out["trace"] = [("server (traced)", traced["spans"])]
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def finish(workload: str, seed: int, seconds: float, raw: dict) -> dict:
    """Add the exact metrics and the accounting; the workload's result."""
    ops = raw["ops"]
    attempted, failed = metrics.accounting(ops)
    values = dict(raw["values"])
    values["fail_ratio"] = failed / attempted if attempted else 1.0
    values["phi_sum"], values["luts_sum"] = metrics.distinct_sums(ops)
    # None marks a metric the workload cannot report (too few samples
    # for a tail percentile; no HTTP submit in a batch workload).
    values = {name: values.get(name) for name in metrics.END_TO_END}
    problems = [
        f"{op['circuit']}/{op['algorithm']}: {msg}"
        for op in ops if metrics.failed(op)
        for msg in ([op["error"]] if op["error"] else []) + op["problems"]
    ]
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "host": host_facts(), "correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "values": values,
            "info": raw["info"], "layers": raw.get("layers"),
            "problems": problems, "passes": raw.get("passes"),
            "ops": None if workload in workloads.BATCH else ops,
            "trace": raw.get("trace")}


def units(bench: dict) -> Dict[str, str]:
    out = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, spec in metrics.REPORT_ONLY.items():
        out.setdefault(name, spec["unit"])
    return out


def print_result(result: dict, unit: Dict[str, str]) -> None:
    info = ", ".join(f"{k} {_fmt(v)}" for k, v in result["info"].items())
    print(f"== {result['workload']} (seed {result['seed']}; {info})")
    for name, value in result["values"].items():
        shown = "n/a" if value is None else _fmt(value)
        print(f"  {name:<24} {shown:>14} {unit[name]}")
    if result["layers"]:
        print("  -- per layer (traced passes)")
        for name in unit:
            if name in result["layers"]:
                print(f"  {name:<24} {_fmt(result['layers'][name]):>14} {unit[name]}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    sys.stdout.flush()


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def write_results(out_dir: str, result: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    trace = result.pop("trace")
    if trace:
        path = os.path.join(out_dir, f"trace-{result['workload']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracing.chrome_trace(trace), fh, separators=(",", ":"))
    with open(os.path.join(out_dir, f"{result['workload']}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
        fh.write("\n")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    t0 = time.perf_counter()
    try:
        if workload == "serve-open":
            raw = run_serve(seed, seconds, trace, work)
        else:
            raw = run_batch(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only when no other run is using it
    raw["info"]["run_s"] = time.perf_counter() - t0
    return finish(workload, seed, seconds, raw)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload (default: all, with --out)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", const="1", default="0", choices=("0", "1"),
                        help="also run traced passes and report per-layer metrics")
    parser.add_argument("--out", help="write full results and traces here")
    args = parser.parse_args(argv)
    workloads.use_checkout_sources()
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    trace = args.trace == "1"
    if args.workload is None and args.out is None:
        parser.error("give --workload, or --out to run every workload")
    unit = units(bench)
    results = []
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        result = run_workload(workload, args.seed, seconds, trace)
        print_result(result, unit)
        if args.out:
            write_results(args.out, dict(result))
        results.append(result)
    if args.workload:
        (result,) = results
        if trace:
            names = [m["name"] for m in bench["per_layer"]]
            source = result["layers"]
        else:
            names = [m["name"] for m in bench["end_to_end"]]
            source = result["values"]
        line = {"correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {n: {"value": source[n], "unit": unit[n]} for n in names}}
    else:
        line = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{n}": {"value": v, "unit": unit[n]}
                        for r in results for n, v in r["values"].items()
                        if v is not None},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    with contextlib.suppress(BrokenPipeError):
        sys.exit(main())
