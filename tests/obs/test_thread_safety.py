"""Concurrency regression tests for the obs layer.

The pipelined execution engine (PR 6) shares one MetricsRegistry and
one Tracer across concurrent callers.  These tests drive the exact
races that used to lose updates: read-modify-write counter increments,
registry instrument creation during snapshot, and ring-buffer appends
from many threads at once.

The ``thread_stress`` marker lets CI run the suite nightly under
``PYTHONDEVMODE=1``; the tests are fast enough to stay in tier-1 too.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

pytestmark = pytest.mark.thread_stress

THREADS = 8
ITERS = 2_000


def _run_threads(target, n=THREADS):
    barrier = threading.Barrier(n)

    def wrapped(index):
        barrier.wait()
        target(index)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_concurrent_counter_increments_are_exact():
    registry = MetricsRegistry()
    counter = registry.counter("engine.ops")

    _run_threads(lambda _i: [counter.inc() for _ in range(ITERS)])

    assert counter.value == THREADS * ITERS
    assert registry.snapshot()["engine.ops"] == THREADS * ITERS


def test_concurrent_instrument_creation_yields_one_instrument():
    registry = MetricsRegistry()

    def worker(_index):
        for _ in range(ITERS):
            registry.counter("engine.shared").inc()

    _run_threads(worker)

    assert registry.counter("engine.shared").value == THREADS * ITERS


def test_snapshot_during_increments_never_fails():
    registry = MetricsRegistry()
    stop = threading.Event()
    errors: list[BaseException] = []

    def incrementer(index):
        for i in range(ITERS):
            registry.counter(f"engine.c{index % 4}").inc()
            registry.histogram("engine.latency").observe(float(i))

    def snapshotter():
        while not stop.is_set():
            try:
                registry.snapshot()
            except BaseException as exc:  # pragma: no cover - the regression
                errors.append(exc)
                return

    reader = threading.Thread(target=snapshotter)
    reader.start()
    try:
        _run_threads(incrementer)
    finally:
        stop.set()
        reader.join()

    assert not errors
    snapshot = registry.snapshot()
    assert snapshot["engine.latency.count"] == THREADS * ITERS
    assert sum(snapshot[f"engine.c{i}"] for i in range(4)) == THREADS * ITERS


def test_histogram_concurrent_observe_totals():
    registry = MetricsRegistry()
    histogram = registry.histogram("engine.bytes")

    _run_threads(lambda _i: [histogram.observe(1.0) for _ in range(ITERS)])

    assert histogram.count == THREADS * ITERS
    assert histogram.total == float(THREADS * ITERS)


def test_tracer_concurrent_spans_exact_phase_totals():
    tracer = Tracer(max_spans=512)  # far smaller than the span volume: wraps

    def worker(index):
        for _ in range(ITERS // 4):
            with tracer.span(f"engine.lane{index % 2}"):
                with tracer.span("engine.op"):
                    pass

    _run_threads(worker)

    breakdown = tracer.phase_breakdown()
    assert breakdown["engine.op"]["count"] == THREADS * (ITERS // 4)
    lanes = breakdown["engine.lane0"]["count"] + breakdown["engine.lane1"]["count"]
    assert lanes == THREADS * (ITERS // 4)
    assert breakdown["engine.op"]["errors"] == 0


def test_tracer_stacks_are_per_thread():
    tracer = Tracer()
    parent_ids: dict[int, int | None] = {}
    barrier = threading.Barrier(4)

    def worker(index):
        with tracer.span("root") as root:
            barrier.wait()  # every thread holds a root span open at once
            with tracer.span("child"):
                parent_ids[index] = tracer._stack[-1].span.span_id
            assert tracer._stack[-1].span.span_id == root.span_id

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    spans = tracer.spans()
    children = [s for s in spans if s.name == "child"]
    roots = {s.span_id: s for s in spans if s.name == "root"}
    assert len(children) == 4 and len(roots) == 4
    # Each child's parent is a root of the *same* trace, i.e. its own
    # thread's root — concurrent spans never adopted a foreign parent.
    for child in children:
        assert child.parent_id in roots
        assert roots[child.parent_id].trace_id == child.trace_id
    # Span ids were allocated race-free: all unique.
    ids = [s.span_id for s in spans]
    assert len(ids) == len(set(ids))


def test_tracer_reads_during_concurrent_appends():
    tracer = Tracer(max_spans=256)
    stop = threading.Event()
    errors: list[BaseException] = []

    def reader():
        while not stop.is_set():
            try:
                list(tracer)
                tracer.phase_breakdown()
                tracer.spans()
            except BaseException as exc:  # pragma: no cover - the regression
                errors.append(exc)
                return

    t = threading.Thread(target=reader)
    t.start()
    try:
        _run_threads(lambda i: [tracer.event(f"e{i % 2}") for _ in range(ITERS // 2)])
    finally:
        stop.set()
        t.join()

    assert not errors
    counts = tracer.phase_breakdown()
    assert counts["e0"]["count"] + counts["e1"]["count"] == THREADS * (ITERS // 2)
