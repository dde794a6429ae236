"""Per-layer spans recorded from outside the program.

The traced run wraps module attributes of :mod:`repro` -- the layer
boundaries listed in :data:`TARGETS` -- so every call records a span
(name, start, end, parent span, op id, attributes) in memory.  No file
under ``src/`` changes; :func:`installed` restores every attribute on
exit.  Spans become a flat per-layer table (:func:`layer_metrics`) and a
Chrome trace-event file (:func:`chrome_trace`) that Perfetto or
``about:tracing`` open directly.

Timestamps are ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so spans from the benchmark's child
processes share one time base.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

# A span is a list, mutated in place when it ends:
# [name, start, end, parent index or -1, op id or None, thread id, attrs]
NAME, START, END, PARENT, OP, TID, ATTRS = range(7)

#: Root span names: one per op (batch) or per job (serve).
ROOTS = ("op", "serve.job")


def _probe_stats(outcome) -> dict:
    s = outcome.stats
    return {
        "flow_queries": s.flow_queries,
        "updates": s.updates,
        "t_flow": s.t_flow,
        "t_expand": s.t_expand,
        "t_pld": s.t_pld,
    }


def _found(result) -> dict:
    return {"found": result is not None}


#: (module, attribute, span name, result annotator) -- the layer
#: boundaries.  ``attribute`` may be ``Class.method``.  Each is patched
#: where callers look it up at call time.
TARGETS = (
    ("repro.core.driver", "probe_phi", "labels", _probe_stats),
    ("repro.core.driver", "find_seq_resynthesis", "seqdecomp", _found),
    ("repro.core.seqdecomp", "synthesize_lut_tree", "seqdecomp.lut_tree", None),
    ("repro.core.seqdecomp", "find_height_cut", "seqdecomp.cut", None),
    ("repro.core.seqdecomp", "cut_on_expansion", "seqdecomp.cut", None),
    ("repro.core.seqdecomp", "sequential_cone_function", "seqdecomp.cone_fn", None),
    ("repro.core.turbosyn", "turbomap", "turbosyn.bound", None),
    ("repro.core.driver", "default_upper_bound", "driver.upper_bound", None),
    ("repro.core.driver", "generate_mapping", "mapping.generate", None),
    ("repro.analysis.certify", "build_cycle_certificate", "analysis.cycle_cert", None),
    ("repro.analysis.certify", "build_schedule_certificate", "analysis.schedule_cert", None),
    ("repro.analysis", "verify_mapping", "analysis.rules", None),
    ("repro.retime.pipeline", "pipeline_and_retime", "retime.pipeline", None),
    ("repro.kernel.csr", "compile_circuit", "kernel.compile", None),
    ("repro.netlist.blif", "write_blif", "netlist.write_blif", None),
    ("repro.cache.store", "cache_key", "cache.key", None),
    ("repro.cache.store", "final_signature", "cache.signature", None),
    ("repro.cache.store", "OutcomeCache.get_outcome", "cache.read", _found),
    ("repro.cache.store", "OutcomeCache.get_final", "cache.read", _found),
    ("repro.cache.store", "OutcomeCache.nearest_seed", "cache.read", None),
    ("repro.cache.store", "OutcomeCache.verified_floor", "cache.read", None),
    ("repro.cache.store", "OutcomeCache.put_outcome", "cache.write", None),
    ("repro.cache.store", "OutcomeCache.put_final", "cache.write", None),
    ("repro.serve.store", "CircuitStore.put", "serve.store_put", None),
    ("repro.serve.store", "CircuitStore.load", "serve.store_load", None),
    ("repro.serve.service", "atomic_write_json", "serve.artifact_write", None),
)


class Tracer:
    """An in-memory span recorder; thread-safe, one stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        """Index of the calling thread's innermost open span, or -1."""
        stack = self._stack()
        return stack[-1] if stack else -1

    def begin(self, name: str, op: Optional[str] = None, **attrs: Any) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][OP]
        record = [name, self.clock(), None, parent, op, threading.get_ident(), attrs]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index: int, attrs: Optional[dict] = None) -> None:
        record = self.spans[index]
        record[END] = self.clock()
        if attrs:
            record[ATTRS].update(attrs)
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextmanager
    def span(self, name: str, op: Optional[str] = None, **attrs: Any) -> Iterator[int]:
        index = self.begin(name, op, **attrs)
        try:
            yield index
        finally:
            self.end(index)

    def snapshot(self) -> List[list]:
        """Copies of every finished span."""
        with self._lock:
            return [list(s) for s in self.spans if s[END] is not None]


def wrap(tracer: Tracer, fn: Callable, name: str,
         annotate: Optional[Callable[[Any], dict]] = None) -> Callable:
    """``fn`` recording one ``name`` span per call."""

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        index = tracer.begin(name)
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                attrs = annotate(result)
            return result
        finally:
            tracer.end(index, attrs)

    return traced


def _owner(module: str, attribute: str) -> "tuple[Any, str]":
    owner: Any = importlib.import_module(module)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextmanager
def installed(tracer: Tracer, targets: Sequence[tuple] = TARGETS,
              extra: Sequence[tuple] = ()) -> Iterator[Tracer]:
    """Patch every target with a tracing wrapper; restore them on exit.

    ``extra`` holds ``(module, attribute, wrapper_factory)`` entries for
    call sites that need more than a plain span (the serve launcher's
    journal hook); ``wrapper_factory(original)`` returns the patch.
    """
    plain = [
        (module, attribute, functools.partial(wrap, tracer, name=name, annotate=annotate))
        for module, attribute, name, annotate in targets
    ]
    saved = []
    try:
        for module, attribute, factory in [*plain, *extra]:
            owner, leaf = _owner(module, attribute)
            original = owner.__dict__[leaf]
            saved.append((owner, leaf, original))
            setattr(owner, leaf, factory(original))
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def union_length(intervals: Sequence["tuple[float, float]"]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: Dict[int, List["tuple[float, float]"]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(a, s[START]), min(b, s[END]))
            for a, b in children.get(i, ())
            if min(b, s[END]) > max(a, s[START])
        ]
        out.append((s[END] - s[START]) - union_length(clipped))
    return out


def _outermost(spans: Sequence[list], i: int) -> bool:
    """No ancestor of span ``i`` has its name (recursion counted once)."""
    name, parent = spans[i][NAME], spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return False
        parent = spans[parent][PARENT]
    return True


#: Per-layer metrics that are plain inclusive seconds of one span name.
INCLUSIVE = {
    "seqdecomp.lut_tree_s": "seqdecomp.lut_tree",
    "seqdecomp.cut_s": "seqdecomp.cut",
    "seqdecomp.cone_fn_s": "seqdecomp.cone_fn",
    "turbosyn.bound_s": "turbosyn.bound",
    "driver.upper_bound_s": "driver.upper_bound",
    "mapping.generate_s": "mapping.generate",
    "analysis.cycle_cert_s": "analysis.cycle_cert",
    "analysis.schedule_cert_s": "analysis.schedule_cert",
    "analysis.rules_s": "analysis.rules",
    "retime.pipeline_s": "retime.pipeline",
    "kernel.compile_s": "kernel.compile",
    "netlist.write_blif_s": "netlist.write_blif",
    "cache.key_s": "cache.key",
    "cache.signature_s": "cache.signature",
    "cache.read_s": "cache.read",
    "cache.write_s": "cache.write",
    "serve.journal_append_s": "serve.journal_append",
    "serve.store_put_s": "serve.store_put",
    "serve.store_load_s": "serve.store_load",
    "serve.artifact_write_s": "serve.artifact_write",
}

#: Per-layer metrics counting calls of one span name.
COUNTS = {
    "labels.calls": "labels",
    "seqdecomp.calls": "seqdecomp",
    "kernel.compile_calls": "kernel.compile",
    "serve.journal_appends": "serve.journal_append",
}

#: Solver counters summed from the ``labels`` spans' annotations.
LABEL_COUNTERS = {
    "labels.flow_queries": "flow_queries",
    "labels.updates": "updates",
    "labels.t_flow_s": "t_flow",
    "labels.t_expand_s": "t_expand",
    "labels.t_pld_s": "t_pld",
}


def _median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: Sequence[list]) -> Dict[str, float]:
    """The flat per-layer table of one pass (or one served stream)."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for metric, name in INCLUSIVE.items():
        out[metric] = sum(
            s[END] - s[START]
            for i, s in enumerate(spans)
            if s[NAME] == name and _outermost(spans, i)
        )
    for metric, name in COUNTS.items():
        out[metric] = sum(1 for s in spans if s[NAME] == name)
    for metric, key in LABEL_COUNTERS.items():
        out[metric] = sum(s[ATTRS].get(key, 0) for s in spans if s[NAME] == "labels")
    out["labels.self_s"] = sum(t for s, t in zip(spans, own) if s[NAME] == "labels")
    out["seqdecomp.self_s"] = sum(
        t for s, t in zip(spans, own) if s[NAME] == "seqdecomp"
    )
    wins = sum(1 for s in spans if s[NAME] == "seqdecomp" and s[ATTRS].get("found"))
    calls = out["seqdecomp.calls"]
    out["seqdecomp.win_ratio"] = wins / calls if calls else 0.0
    lookups = [s for s in spans if s[NAME] == "cache.read" and "found" in s[ATTRS]]
    hits = sum(1 for s in lookups if s[ATTRS]["found"])
    out["cache.hit_ratio"] = hits / len(lookups) if lookups else 0.0

    # serve: accept -> start -> terminal, from the journal records.
    marks: Dict[str, Dict[str, float]] = {}
    for s in spans:
        if s[NAME] == "serve.journal_append" and s[ATTRS].get("job"):
            kind = s[ATTRS].get("type")
            if kind in ("done", "fail", "cancelled"):
                kind = "terminal"
            marks.setdefault(s[ATTRS]["job"], {}).setdefault(kind, s[END])
    waits = [m["start"] - m["accept"] for m in marks.values()
             if "accept" in m and "start" in m]
    runs = [m["terminal"] - m["start"] for m in marks.values()
            if "start" in m and "terminal" in m]
    out["serve.queue_wait_p50_s"] = _median_or_zero(waits)
    out["serve.run_p50_s"] = _median_or_zero(runs)

    # coverage: op time under no child span.
    root_time = unattributed = 0.0
    for s, t in zip(spans, own):
        if s[NAME] in ROOTS:
            root_time += s[END] - s[START]
            unattributed += t
    out["unattributed_s"] = unattributed
    out["coverage_ratio"] = 1.0 - unattributed / root_time if root_time else 0.0
    return out


def chrome_trace(passes: Sequence["tuple[str, Sequence[list]]"]) -> dict:
    """Chrome trace-event JSON of labelled span lists (one process row
    per pass), microseconds from the earliest span."""
    starts = [s[START] for _, spans in passes for s in spans]
    t0 = min(starts) if starts else 0.0
    events: List[dict] = []
    for pid, (label, spans) in enumerate(passes, start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "args": {"name": label}})
        for s in spans:
            args = dict(s[ATTRS])
            if s[OP] is not None:
                args["op"] = s[OP]
            events.append({
                "name": s[NAME],
                "cat": s[NAME].split(".", 1)[0],
                "ph": "X",
                "ts": round((s[START] - t0) * 1e6, 3),
                "dur": round((s[END] - s[START]) * 1e6, 3),
                "pid": pid,
                "tid": s[TID],
                "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
