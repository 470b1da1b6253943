"""repro.obs — end-to-end observability for the SPEED pipeline.

Tracing (:class:`Tracer`, :class:`Span`), unified metrics
(:class:`MetricsRegistry` absorbing every component's counters under
``component.metric`` keys), slow-call logging, and exporters (JSON
lines, human tables, per-phase latency breakdowns).

The blessed way to get a wired-up tracer is :func:`repro.connect` — the
session attaches one tracer to the runtime, enclaves, channels, router,
and stores so a single ``execute`` yields one connected span tree.
"""

from .exporters import (
    diff_breakdown,
    format_metrics,
    format_phase_breakdown,
    format_trace,
    phase_breakdown,
    spans_to_jsonl,
    write_spans_jsonl,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, namespaced
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanNode,
    Tracer,
    build_tree,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanNode",
    "Tracer",
    "build_tree",
    "diff_breakdown",
    "format_metrics",
    "format_phase_breakdown",
    "format_trace",
    "namespaced",
    "phase_breakdown",
    "spans_to_jsonl",
    "write_spans_jsonl",
]
