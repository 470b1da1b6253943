"""Unit tests for the unified metrics registry (repro.obs.metrics)."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    namespaced,
)


def test_counter_and_gauge():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    gauge = Gauge()
    gauge.set(2.5)
    gauge.set(1.0)
    assert gauge.value == 1.0


def test_histogram_summary_and_quantiles():
    histogram = Histogram()
    for value in range(1, 101):
        histogram.observe(float(value))
    summary = histogram.summary()
    assert summary["count"] == 100
    assert summary["min"] == 1.0
    assert summary["max"] == 100.0
    assert summary["mean"] == pytest.approx(50.5)
    assert 40.0 <= summary["p50"] <= 60.0
    assert summary["p95"] >= 90.0


def test_histogram_reservoir_is_bounded_and_deterministic():
    a, b = Histogram(max_samples=16), Histogram(max_samples=16)
    for value in range(1000):
        a.observe(float(value))
        b.observe(float(value))
    assert len(a._samples) == 16
    assert a._samples == b._samples  # no randomness
    assert a.summary() == b.summary()


def test_empty_histogram_summary_is_all_zero():
    assert Histogram().summary()["count"] == 0
    assert Histogram().quantile(0.5) == 0.0


def test_namespaced_emits_only_canonical_keys():
    out = namespaced("store", {"gets": 3, "puts_duplicate": 1},
                     renames={"puts_duplicate": "puts_duplicated"})
    assert out == {"store.gets": 3, "store.puts_duplicated": 1}


def test_registry_instruments_appear_in_snapshot():
    registry = MetricsRegistry()
    registry.counter("app.requests").inc(7)
    registry.gauge("app.queue_depth").set(3)
    registry.histogram("app.latency").observe(0.5)
    snap = registry.snapshot()
    assert snap["app.requests"] == 7
    assert snap["app.queue_depth"] == 3
    assert snap["app.latency.count"] == 1
    assert snap["app.latency.mean"] == 0.5


def test_registry_sources_namespace_undotted_keys():
    registry = MetricsRegistry()
    registry.register_source("runtime", lambda: {"calls": 2, "runtime.hits": 1})
    snap = registry.snapshot()
    assert snap["runtime.hits"] == 1       # dotted keys pass through
    assert snap["runtime.calls"] == 2      # un-dotted get the prefix
    assert "calls" not in snap             # aliases never leak


def test_registry_source_alias_never_shadows_canonical_twin():
    # A legacy snapshot carries both "gets" (alias) and "store.gets"
    # (canonical, possibly renamed) — the alias must not overwrite it.
    registry = MetricsRegistry()
    registry.register_source("store", lambda: {"gets": 99, "store.gets": 1})
    assert registry.snapshot()["store.gets"] == 1


def test_registry_sources_are_live_and_unregisterable():
    registry = MetricsRegistry()
    state = {"n": 0}
    registry.register_source("c", lambda: {"n": state["n"]})
    assert registry.snapshot()["c.n"] == 0
    state["n"] = 5
    assert registry.snapshot()["c.n"] == 5
    registry.unregister_source("c")
    assert registry.snapshot() == {}


def test_to_json_round_trips():
    registry = MetricsRegistry()
    registry.counter("x.y").inc()
    assert json.loads(registry.to_json()) == {"x.y": 1}
