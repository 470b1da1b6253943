"""Adaptive deduplication strategy (the paper's stated future direction).

"As a future direction, we will explore an automatic extension to enable
the application to adjust its deduplication strategy via dynamic
analyzing the underlying computations during its runtime." (§VII)

This module implements that extension.  The observation behind it is the
paper's own §V-B conclusion: deduplication pays off for time-consuming
functions, while for fast functions the GET + crypto path can cost more
than just recomputing.  :class:`AdaptiveDedupPolicy` learns, per marked
function, an online estimate of

* the *miss path* cost (compute + protect + PUT),
* the *hit path* cost (tag + GET + verify + decrypt), and
* the observed hit rate,

and keeps deduplication enabled only while the expected value of
attempting a lookup beats always computing:

    hit_rate * hit_cost + (1 - hit_rate) * (miss_cost + lookup_overhead)
        <  compute_cost

A periodic *probe* re-enables lookups for a function that was turned
off, so a workload whose duplication ratio improves is rediscovered.
All estimates use the simulated clock, making decisions deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Smoothing factor of the cost averages.
EMA_ALPHA = 0.25
#: Advantage (fractional) required before a decision flips, so it does
#: not oscillate around the break-even point.
MARGIN = 0.1


@dataclass
class FunctionProfile:
    """Online cost/benefit statistics for one marked function."""

    calls: int = 0
    hits: int = 0
    # Exponential moving averages, in simulated seconds.
    ema_hit_cost: float = 0.0
    ema_miss_cost: float = 0.0
    ema_compute_cost: float = 0.0
    dedup_enabled: bool = True
    suppressed_calls: int = 0

    def hit_rate(self) -> float:
        return self.hits / self.calls if self.calls else 0.0


@dataclass
class AdaptiveDedupPolicy:
    """Decides per call whether the runtime should attempt deduplication.

    Parameters
    ----------
    min_observations:
        Calls to observe before any suppression decision is made.
    probe_interval:
        While suppressed, one in every ``probe_interval`` calls still
        attempts the lookup so improving workloads are rediscovered.

    The cost averages' smoothing and the decision's hysteresis are the
    module constants :data:`EMA_ALPHA` and :data:`MARGIN`.
    """

    min_observations: int = 8
    probe_interval: int = 16
    _profiles: dict[bytes, FunctionProfile] = field(default_factory=dict)

    def profile(self, func_identity: bytes) -> FunctionProfile:
        prof = self._profiles.get(func_identity)
        if prof is None:
            prof = FunctionProfile()
            self._profiles[func_identity] = prof
        return prof

    # -- decision ---------------------------------------------------------
    def should_attempt_dedup(self, func_identity: bytes) -> bool:
        """Called by the runtime before the GET."""
        prof = self.profile(func_identity)
        if prof.dedup_enabled:
            return True
        prof.suppressed_calls += 1
        # Probe occasionally even while suppressed.
        return prof.suppressed_calls % self.probe_interval == 0

    # -- learning -----------------------------------------------------------
    def _ema(self, old: float, sample: float) -> float:
        if old == 0.0:
            return sample
        return (1 - EMA_ALPHA) * old + EMA_ALPHA * sample

    def observe_hit(self, func_identity: bytes, sim_seconds: float) -> None:
        prof = self.profile(func_identity)
        prof.calls += 1
        prof.hits += 1
        prof.ema_hit_cost = self._ema(prof.ema_hit_cost, sim_seconds)
        self._reconsider(prof)

    def observe_miss(
        self, func_identity: bytes, sim_seconds: float, compute_seconds: float
    ) -> None:
        prof = self.profile(func_identity)
        prof.calls += 1
        prof.ema_miss_cost = self._ema(prof.ema_miss_cost, sim_seconds)
        prof.ema_compute_cost = self._ema(prof.ema_compute_cost, compute_seconds)
        self._reconsider(prof)

    def observe_plain_compute(self, func_identity: bytes, compute_seconds: float) -> None:
        """A suppressed call that simply computed (no store round trip)."""
        prof = self.profile(func_identity)
        prof.ema_compute_cost = self._ema(prof.ema_compute_cost, compute_seconds)

    # -- the cost model -------------------------------------------------------
    def _reconsider(self, prof: FunctionProfile) -> None:
        if prof.calls < self.min_observations:
            return
        if prof.calls == prof.hits:
            # No computed call yet (a declared cost may be zero: a
            # function that declares none is free to recompute).
            return
        rate = prof.hit_rate()
        hit_cost = prof.ema_hit_cost or prof.ema_compute_cost
        miss_cost = prof.ema_miss_cost or prof.ema_compute_cost
        expected_with_dedup = rate * hit_cost + (1 - rate) * miss_cost
        if prof.dedup_enabled:
            # Disable only with a clear margin against plain compute.
            if expected_with_dedup > prof.ema_compute_cost * (1 + MARGIN):
                prof.dedup_enabled = False
                prof.suppressed_calls = 0
        else:
            if expected_with_dedup < prof.ema_compute_cost * (1 - MARGIN):
                prof.dedup_enabled = True

    # -- reporting ---------------------------------------------------------------
    def report(self) -> dict[bytes, FunctionProfile]:
        return dict(self._profiles)
