"""Unified metrics for every SPEED component.

Before this module each component kept its own stats dataclass with its
own ``snapshot()`` shape (``RuntimeStats``, ``StoreStats``,
``RouterStats``).  A :class:`MetricsRegistry` absorbs them all behind
one contract:

* **instruments** — :class:`Counter`, :class:`Gauge`,
  :class:`Histogram` created on demand by dotted name
  (``"channel.encrypt_bytes"``);
* **sources** — live components registered with
  :meth:`MetricsRegistry.register_source`; their snapshots are folded in
  under ``<component>.<metric>`` keys at read time, so the registry
  always reflects current counters without copying on every increment;
* one :meth:`snapshot`, JSON-ready, for everything.

Key normalization: canonical keys are ``<component>.<metric>`` in
snake_case, plural nouns for event counters, ``*_seconds_total`` for
accumulated time, ``*_rate`` for ratios (see :func:`namespaced`).
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping


class Counter:
    """Monotonic event counter.

    ``inc`` is a read-modify-write, so it holds a lock: the pipelined
    engine's thread-stress suite increments the same counter from many
    threads and expects exact totals.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """Last-write-wins numeric level."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming distribution: exact count/sum/min/max plus a bounded
    sample reservoir for quantile estimates."""

    __slots__ = ("count", "total", "min", "max", "_samples", "_max_samples", "_lock")

    def __init__(self, max_samples: int = 1024) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._max_samples = max_samples
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if len(self._samples) < self._max_samples:
                self._samples.append(value)
            else:
                # Deterministic decimation: overwrite round-robin so the
                # reservoir keeps tracking the stream without randomness
                # (the simulation is reproducible by construction).
                self._samples[self.count % self._max_samples] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        with self._lock:
            samples = list(self._samples)
        if not samples:
            return 0.0
        ordered = sorted(samples)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
        }


def namespaced(component: str, metrics: Mapping[str, float],
               renames: Mapping[str, str] | None = None) -> dict:
    """Key a component's flat counters canonically, ``component.metric``.

    ``renames`` maps a counter's attribute name to its normalized metric
    name where the two differ (mixed tense/units in the attribute).
    """
    renames = renames or {}
    return {
        f"{component}.{renames.get(key, key)}": value
        for key, value in metrics.items()
    }


class MetricsRegistry:
    """One place to read every counter in a deployment."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sources: dict[str, Callable[[], Mapping[str, float]]] = {}
        # Guards registry *structure* (instrument/source creation and the
        # snapshot walk); instruments carry their own locks for updates.
        self._lock = threading.Lock()

    # -- instruments ---------------------------------------------------------
    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            with self._lock:
                return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(name, Histogram())

    # -- sources -------------------------------------------------------------
    def register_source(
        self, component: str, source: Callable[[], Mapping[str, float]]
    ) -> None:
        """Attach a live component; ``source()`` must return a flat
        numeric dict.  Dotted keys are taken as already canonical;
        un-dotted keys are folded in under ``<component>.<key>`` (how a
        per-shard source lands under ``store.<shard_id>.<metric>``)."""
        with self._lock:
            self._sources[component] = source

    # -- reading -------------------------------------------------------------
    def snapshot(self) -> dict:
        """One flat, JSON-ready dict over all instruments and sources,
        canonical ``component.metric`` keys only.

        Safe to call while other threads create instruments: the
        registry dicts are copied under the lock, then read lock-free
        (each instrument's own lock keeps its numbers consistent).
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            sources = dict(self._sources)
        out: dict = {}
        for name, counter in counters.items():
            out[name] = counter.value
        for name, gauge in gauges.items():
            out[name] = gauge.value
        for name, histogram in histograms.items():
            for stat, value in histogram.summary().items():
                out[f"{name}.{stat}"] = value
        for component, source in sources.items():
            raw = source()
            for key, value in raw.items():
                if "." in key:
                    out[key] = value
            for key, value in raw.items():
                if "." not in key:
                    out.setdefault(f"{component}.{key}", value)
        return out
