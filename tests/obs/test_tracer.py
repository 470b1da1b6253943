"""Unit tests for the span tracer (repro.obs.tracer)."""

import pytest

from repro.obs.tracer import NULL_TRACER, Tracer, build_tree
from tests.conftest import find_nodes, find_spans


class FakeClock:
    """Minimal SimClock stand-in: cycles advance when told to."""

    class params:
        cpu_freq_hz = 1_000_000  # 1 cycle == 1 us

    def __init__(self):
        self.cycles = 0

    def snapshot(self):
        return self.cycles

    def since(self, snapshot):
        return self.cycles - snapshot

    def advance(self, cycles):
        self.cycles += cycles


def test_nested_spans_link_parent_child():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
    spans = tracer.spans()
    assert [s.name for s in spans] == ["inner", "outer"]  # finish order
    inner, outer_span = spans
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer_span.trace_id
    assert outer_span.parent_id is None


def test_sibling_roots_get_distinct_trace_ids():
    tracer = Tracer()
    with tracer.span("first"):
        pass
    with tracer.span("second"):
        pass
    first, second = tracer.spans()
    assert first.trace_id != second.trace_id
    assert [s.name for s in tracer.last_trace()] == ["second"]


def test_span_records_sim_time_from_clock():
    tracer = Tracer()
    clock = FakeClock()
    with tracer.span("work", clock=clock):
        clock.advance(500)
    (span,) = tracer.spans()
    assert span.sim_seconds == pytest.approx(500 / clock.params.cpu_freq_hz)
    assert span.wall_seconds >= 0.0


def test_span_attrs_and_runtime_set_and_mark():
    tracer = Tracer()
    with tracer.span("op", kind="get", bytes=12) as span:
        span.set("found", True)
        span.mark("degraded")
    (finished,) = tracer.spans()
    assert finished.attrs == {"kind": "get", "bytes": 12, "found": True}
    assert finished.status == "degraded"


def test_exception_marks_span_error_and_propagates():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("no")
    (span,) = tracer.spans()
    assert span.status == "error"
    assert span.attrs["error"] == "ValueError"
    # The stack unwound: a new span is a fresh root.
    with tracer.span("next"):
        pass
    assert tracer.spans()[-1].parent_id is None


def test_event_is_a_zero_duration_child_span():
    tracer = Tracer()
    with tracer.span("parent") as parent:
        event = tracer.event("failover", shard="shard-1")
    assert event.parent_id == parent.span_id
    assert event.attrs == {"shard": "shard-1"}


def test_phase_breakdown_survives_ring_buffer_wrap():
    tracer = Tracer(max_spans=4)
    for _ in range(10):
        with tracer.span("tick"):
            pass
    assert len(tracer) == 4  # buffer wrapped
    breakdown = tracer.phase_breakdown()
    assert breakdown["tick"]["count"] == 10
    assert breakdown["tick"]["errors"] == 0


def test_phase_breakdown_counts_errors():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("op"):
            raise RuntimeError
    with tracer.span("op"):
        pass
    assert tracer.phase_breakdown()["op"] == pytest.approx(
        {"count": 2, "errors": 1,
         "wall_seconds": tracer.phase_breakdown()["op"]["wall_seconds"],
         "sim_seconds": 0.0}
    )


def test_tree_and_find():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("leaf"):
                pass
        with tracer.span("b"):
            pass
    roots = tracer.tree()
    assert len(roots) == 1
    assert roots[0].span.name == "root"
    assert [c.span.name for c in roots[0].children] == ["a", "b"]
    assert [n.span.name for n in find_nodes(roots[0], "leaf")] == ["leaf"]
    assert find_spans(tracer.spans(), "b")[0].name == "b"


def test_build_tree_orphan_spans_become_roots():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("mid"):
            with tracer.span("leaf"):
                pass
    # Render from a partial list (as after buffer wrap): spans whose
    # parent is missing root the rendered tree instead of vanishing.
    partial = [s for s in tracer.spans() if s.name != "root"]
    roots = build_tree(partial)
    assert [r.span.name for r in roots] == ["mid"]
    assert [c.span.name for c in roots[0].children] == ["leaf"]


def test_reset_clears_spans_and_totals():
    tracer = Tracer()
    with tracer.span("x"):
        pass
    tracer.reset()
    assert len(tracer) == 0
    assert tracer.phase_breakdown() == {}


def test_fresh_tracer_is_falsy_so_identity_checks_are_required():
    # A Tracer defines __len__, so a fresh one is falsy — components must
    # use "NULL_TRACER if tracer is None else tracer", never "tracer or".
    tracer = Tracer()
    assert not tracer
    assert tracer.enabled


def test_null_tracer_is_inert():
    assert not NULL_TRACER.enabled
    with NULL_TRACER.span("anything", clock=None, foo=1) as span:
        span.set("k", "v")
        span.mark("error")
    assert span.span_id is None
    assert NULL_TRACER.current_trace_id is None
    assert NULL_TRACER.event("x") is None
