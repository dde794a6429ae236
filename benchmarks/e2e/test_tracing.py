"""Span bookkeeping: self time, coverage, patching and the Chrome export."""

import sys
import threading

import tracing


def _span(name, start, end, parent=-1, **attrs):
    return [name, start, end, parent, None, 1, attrs]


def test_union_length_merges_overlaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert tracing.union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_subtracts_nested_and_overlapping_children_once():
    spans = [
        _span("op", 0.0, 10.0),
        _span("labels", 1.0, 5.0, parent=0),
        _span("seqdecomp", 2.0, 3.0, parent=1),
        _span("kernel.compile", 2.5, 4.0, parent=1),  # overlaps its sibling
        _span("analysis.rules", 4.5, 12.0, parent=0),  # runs past the op
    ]
    own = tracing.self_times(spans)
    assert own[2] == 1.0
    assert own[1] == 4.0 - 2.0  # children cover 2.0..4.0 once
    assert own[0] == 10.0 - 9.0  # children cover 1.0..10.0, clipped at the end
    table = tracing.layer_metrics(spans)
    assert table["labels.self_s"] == 2.0
    assert table["unattributed_s"] == own[0]
    assert table["coverage_ratio"] == 1.0 - own[0] / 10.0


def test_inclusive_time_counts_recursion_once():
    spans = [
        _span("op", 0.0, 10.0),
        _span("mapping.generate", 1.0, 9.0, parent=0),
        _span("mapping.generate", 2.0, 3.0, parent=1),
    ]
    assert tracing.layer_metrics(spans)["mapping.generate_s"] == 8.0


def test_counters_and_ratios_come_from_annotations():
    spans = [
        _span("labels", 0.0, 1.0, flow_queries=3, updates=4, t_flow=0.25),
        _span("labels", 1.0, 2.0, flow_queries=5, updates=1, t_flow=0.5),
        _span("seqdecomp", 2.0, 2.5, found=True),
        _span("seqdecomp", 2.5, 3.0, found=False),
        _span("cache.read", 3.0, 3.1, found=True),
        _span("cache.read", 3.1, 3.2),  # a seed lookup: not a hit test
    ]
    table = tracing.layer_metrics(spans)
    assert table["labels.calls"] == 2
    assert table["labels.flow_queries"] == 8
    assert table["labels.t_flow_s"] == 0.75
    assert table["seqdecomp.win_ratio"] == 0.5
    assert table["cache.hit_ratio"] == 1.0


def test_journal_marks_give_queue_wait_and_run_time():
    spans = []
    for job, (accept, start, done) in {"j1": (0.0, 0.5, 2.0), "j2": (1.0, 2.0, 2.5)}.items():
        spans += [
            _span("serve.journal_append", accept - 0.01, accept, type="accept", job=job),
            _span("serve.journal_append", start - 0.01, start, type="start", job=job),
            _span("serve.journal_append", done - 0.01, done, type="done", job=job),
        ]
    table = tracing.layer_metrics(spans)
    assert table["serve.journal_appends"] == 6
    assert table["serve.queue_wait_p50_s"] == 0.75
    assert table["serve.run_p50_s"] == 1.0


class _Box:
    def twice(self, x):
        return 2 * x


def test_installed_wraps_and_restores():
    module = type(sys)("e2e_fake_layer")
    module.work = lambda x: x + 1
    module.Box = _Box
    sys.modules["e2e_fake_layer"] = module
    original_work, original_twice = module.work, _Box.__dict__["twice"]
    tracer = tracing.Tracer()
    targets = [("e2e_fake_layer", "work", "fake.work", None),
               ("e2e_fake_layer", "Box.twice", "fake.twice", lambda r: {"r": r})]
    try:
        with tracing.installed(tracer, targets):
            with tracer.span("op", op="a"):
                assert module.work(1) == 2
                assert _Box().twice(3) == 6
        assert module.work is original_work
        assert _Box.__dict__["twice"] is original_twice
    finally:
        del sys.modules["e2e_fake_layer"]
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["op", "fake.work", "fake.twice"]
    assert all(s[tracing.OP] == "a" for s in tracer.spans)
    assert tracer.spans[2][tracing.ATTRS] == {"r": 6}


def test_threads_keep_their_own_parents():
    tracer = tracing.Tracer()
    with tracer.span("op", op="main"):
        worker = threading.Thread(target=lambda: tracer.end(tracer.begin("labels")))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    child = tracer.spans[1]
    assert child[tracing.PARENT] == -1 and child[tracing.OP] is None


def test_chrome_trace_events():
    spans = [_span("op", 1.0, 2.0), _span("labels", 1.25, 1.5, parent=0, flow_queries=2)]
    trace = tracing.chrome_trace([("pass 0", spans)])
    meta, op, labels = trace["traceEvents"]
    assert meta["ph"] == "M" and meta["args"]["name"] == "pass 0"
    assert (op["ts"], op["dur"], op["ph"]) == (0.0, 1e6, "X")
    assert (labels["ts"], labels["cat"], labels["args"]) == (
        250000.0, "labels", {"flow_queries": 2}
    )
