"""Per-request tracing for the SPEED pipeline.

A :class:`Tracer` produces :class:`Span` records for every phase a
deduplicated call moves through — tag derivation, L1 lookup, enclave
transitions, channel crypto, RPC round-trips, router shard selection,
store metadata/blob access — with parent/child links, so one
``Session.execute`` yields a connected tree from the application
runtime down to the shard that served it.

The simulation is single-threaded and synchronous, so context
propagation is a simple stack: the span open when a child starts is its
parent, even across component boundaries (runtime → router → store),
which is exactly the call path of the simulated deployment.

Every span records **two** durations, mirroring the cost model
(:mod:`repro.sgx.cost_model`): honest Python wall time, and simulated
time on whichever machine's clock the instrumented component charges
(pass ``clock=`` when opening the span).  Phase totals are aggregated
incrementally at span finish, so the per-phase latency breakdown
survives even after the bounded span buffer wraps.

Components that are not being observed carry the :data:`NULL_TRACER`
singleton, whose ``span()`` is a reusable no-op — no buffers, no
allocation per call.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator


@dataclass
class Span:
    """One finished phase of one traced request."""

    name: str
    span_id: int
    trace_id: int
    parent_id: int | None
    start_wall: float
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    status: str = "ok"
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


@dataclass
class SpanNode:
    """A span plus its children, for tree rendering and assertions."""

    span: Span
    children: list["SpanNode"] = field(default_factory=list)


class _OpenSpan:
    """Handle for a span in progress; finished by the tracer."""

    __slots__ = ("span", "_clock", "_sim0", "_wall0")

    def __init__(self, span: Span, clock, sim0, wall0: float):
        self.span = span
        self._clock = clock
        self._sim0 = sim0
        self._wall0 = wall0

    def set(self, key: str, value) -> None:
        self.span.attrs[key] = value

    def mark(self, status: str) -> None:
        self.span.status = status

    @property
    def span_id(self) -> int:
        return self.span.span_id


class _SpanContext:
    """Context manager entering/finishing one span on a tracer."""

    __slots__ = ("_tracer", "_name", "_clock", "_attrs", "_open")

    def __init__(self, tracer: "Tracer", name: str, clock, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._clock = clock
        self._attrs = attrs
        self._open: _OpenSpan | None = None

    def __enter__(self) -> _OpenSpan:
        self._open = self._tracer._start(self._name, self._clock, self._attrs)
        return self._open

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._open is not None
        if exc_type is not None and self._open.span.status == "ok":
            self._open.mark("error")
            self._open.set("error", exc_type.__name__)
        self._tracer._finish(self._open)
        return False


class _NullSpan:
    """Shared no-op handle: enter/exit/set/mark all do nothing."""

    __slots__ = ()
    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value) -> None:
        pass

    def mark(self, status: str) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: the default collaborator for every component.

    Its ``span()`` hands back one shared no-op context manager, so the
    instrumented hot paths stay branch-free and allocation-free when
    nobody is watching.
    """

    enabled = False

    def span(self, name: str, clock=None, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, clock=None, **attrs) -> None:
        return None

    @property
    def current_trace_id(self) -> int | None:
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans into bounded buffers and aggregates phase totals.

    Parameters
    ----------
    max_spans:
        Ring-buffer capacity for finished spans; older spans fall off
        but their contribution to :meth:`phase_breakdown` is retained.
    """

    enabled = True

    def __init__(self, max_spans: int = 50_000):
        self._spans: deque[Span] = deque(maxlen=max_spans)
        # Each thread gets its own span stack: context propagation stays
        # a stack discipline per thread, and concurrent spans never see
        # each other as parents.  Shared buffers (ring buffer, phase
        # totals, id allocation) are guarded by one lock.
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_span_id = 1
        self._next_trace_id = 1
        self._last_trace_id: int | None = None
        # phase name -> [count, wall_seconds, sim_seconds, errors]
        self._phase_totals: dict[str, list] = {}

    @property
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording -----------------------------------------------------------
    def span(self, name: str, clock=None, **attrs) -> _SpanContext:
        """Open one span; use as a context manager.

        ``clock`` is the :class:`~repro.sgx.cost_model.SimClock` of the
        machine doing the work, so the span's ``sim_seconds`` reflects
        simulated time on *that* machine.
        """
        return _SpanContext(self, name, clock, attrs)

    def event(self, name: str, clock=None, **attrs) -> Span:
        """Record a zero-duration span (a point event like a failover)."""
        open_span = self._start(name, clock, attrs)
        self._finish(open_span)
        return open_span.span

    def _start(self, name: str, clock, attrs: dict) -> _OpenSpan:
        stack = self._stack
        if stack:
            parent = stack[-1].span
            trace_id = parent.trace_id
            parent_id = parent.span_id
            with self._lock:
                span_id = self._next_span_id
                self._next_span_id += 1
        else:
            parent_id = None
            with self._lock:
                trace_id = self._next_trace_id
                self._next_trace_id += 1
                self._last_trace_id = trace_id
                span_id = self._next_span_id
                self._next_span_id += 1
        span = Span(
            name=name,
            span_id=span_id,
            trace_id=trace_id,
            parent_id=parent_id,
            start_wall=perf_counter(),
            attrs=attrs,
        )
        open_span = _OpenSpan(
            span, clock, clock.snapshot() if clock is not None else None, span.start_wall
        )
        stack.append(open_span)
        return open_span

    def _finish(self, open_span: _OpenSpan) -> None:
        stack = self._stack
        if not stack or stack[-1] is not open_span:
            # Mis-nested finish (a span leaked across a raise the caller
            # swallowed): unwind to it so the stack stays consistent.
            while stack and stack[-1] is not open_span:
                stack.pop()
        if stack:
            stack.pop()
        span = open_span.span
        span.wall_seconds = perf_counter() - open_span._wall0
        if open_span._clock is not None and open_span._sim0 is not None:
            clock = open_span._clock
            span.sim_seconds = clock.since(open_span._sim0) / clock.params.cpu_freq_hz
        with self._lock:
            self._spans.append(span)
            totals = self._phase_totals.setdefault(span.name, [0, 0.0, 0.0, 0])
            totals[0] += 1
            totals[1] += span.wall_seconds
            totals[2] += span.sim_seconds
            if span.status != "ok":
                totals[3] += 1

    # -- context -------------------------------------------------------------
    @property
    def current_trace_id(self) -> int | None:
        return self._stack[-1].span.trace_id if self._stack else None

    # -- reading -------------------------------------------------------------
    def spans(self, trace_id: int | None = None) -> list[Span]:
        """Finished spans, oldest first; optionally one trace only."""
        with self._lock:
            spans = list(self._spans)
        if trace_id is None:
            return spans
        return [s for s in spans if s.trace_id == trace_id]

    def last_trace(self) -> list[Span]:
        """All finished spans of the most recent trace."""
        if self._last_trace_id is None:
            return []
        return self.spans(self._last_trace_id)

    def tree(self, trace_id: int | None = None) -> list[SpanNode]:
        """Parent/child-linked roots for one trace (default: the last)."""
        if trace_id is None:
            trace_id = self._last_trace_id
        spans = self.spans(trace_id)
        return build_tree(spans)

    def phase_breakdown(self) -> dict[str, dict]:
        """Cumulative per-phase latency totals over the tracer's life.

        ``{name: {count, wall_seconds, sim_seconds, errors}}`` — includes
        the contribution of spans the bounded buffer has already dropped.
        """
        with self._lock:
            items = [(name, list(totals)) for name, totals in self._phase_totals.items()]
        return {
            name: {
                "count": totals[0],
                "wall_seconds": totals[1],
                "sim_seconds": totals[2],
                "errors": totals[3],
            }
            for name, totals in sorted(items)
        }

    def reset(self) -> None:
        """Drop finished spans and totals (open spans stay)."""
        with self._lock:
            self._spans.clear()
            self._phase_totals.clear()

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans())


def build_tree(spans: list[Span]) -> list[SpanNode]:
    """Link a flat span list into roots (parents precede children)."""
    nodes = {span.span_id: SpanNode(span) for span in spans}
    roots: list[SpanNode] = []
    for span in spans:
        node = nodes[span.span_id]
        parent = nodes.get(span.parent_id) if span.parent_id is not None else None
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots
