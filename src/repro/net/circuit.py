"""Per-destination circuit breakers for the cluster routing layer.

A dead shard makes every call to it pay the full timeout path (send,
scan, retries).  A :class:`CircuitBreaker` converts repeated failures
into fast local refusals: after ``failure_threshold`` consecutive
failures the breaker *opens* and calls are refused without touching the
wire; after a quiet period it admits a single probe (*half-open*) whose
outcome decides between closing again and re-opening.

Two recovery clocks are supported, because the simulation offers two
notions of "later":

* ``reset_timeout_s`` — simulated seconds on the machine's
  :class:`~repro.sgx.cost_model.SimClock`;
* ``reset_after_skips`` — a count of refused calls.  This variant does
  not depend on how much simulated time each call costs, so the
  simulation harness uses it: its traces name events, never clock
  readings.

When both are set, whichever trips first admits the probe.
"""

from __future__ import annotations

from dataclasses import dataclass

# Numeric state codes (exported through metrics snapshots).
CLOSED = 0
OPEN = 1
HALF_OPEN = 2

_STATE_NAMES = {CLOSED: "closed", OPEN: "open", HALF_OPEN: "half_open"}


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning for one :class:`CircuitBreaker`."""

    failure_threshold: int = 3
    reset_timeout_s: float | None = 0.05
    reset_after_skips: int | None = None

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout_s is None and self.reset_after_skips is None:
            raise ValueError("breaker needs a recovery clock (timeout or skips)")


class CircuitBreaker:
    """Closed → open → half-open failure gate for one destination."""

    def __init__(self, config: BreakerConfig | None = None, clock=None):
        self.config = config or BreakerConfig()
        self.clock = clock
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._skips_while_open = 0
        self.opens = 0
        self.skips = 0

    @property
    def state(self) -> int:
        return self._state

    @property
    def state_name(self) -> str:
        return _STATE_NAMES[self._state]

    def _now(self) -> float:
        return self.clock.elapsed_seconds() if self.clock is not None else 0.0

    def allow(self) -> bool:
        """May a call go out right now?  A refusal is counted as a skip
        and advances the skip-based recovery clock."""
        if self._state == CLOSED:
            return True
        if self._state == OPEN:
            cfg = self.config
            timed_out = (
                cfg.reset_timeout_s is not None
                and self._now() - self._opened_at >= cfg.reset_timeout_s
            )
            skipped_out = (
                cfg.reset_after_skips is not None
                and self._skips_while_open >= cfg.reset_after_skips
            )
            if timed_out or skipped_out:
                self._state = HALF_OPEN
                return True
            self.skips += 1
            self._skips_while_open += 1
            return False
        return True  # HALF_OPEN: admit the probe

    def record_success(self) -> None:
        self._state = CLOSED
        self._failures = 0
        self._skips_while_open = 0

    def record_failure(self) -> None:
        self._failures += 1
        if self._state == HALF_OPEN or self._failures >= self.config.failure_threshold:
            if self._state != OPEN:
                self.opens += 1
            self._state = OPEN
            self._failures = 0
            self._skips_while_open = 0
            self._opened_at = self._now()

    def snapshot(self) -> dict:
        return {
            "state": self._state,
            "opens": self.opens,
            "skips": self.skips,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CircuitBreaker {self.state_name} opens={self.opens}>"
