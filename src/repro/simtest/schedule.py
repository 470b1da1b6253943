"""Seeded fault schedules for the deterministic simulation harness.

A :class:`FaultPlan` is the probabilistic half of the fault model: it
plugs into :attr:`~repro.net.transport.FaultInjector.plan` and decides,
for every message on every (source, dest) edge, whether to drop,
corrupt, duplicate, or delay it.  Decisions are **stateless** — each is
a pure hash of ``(seed, source, dest, edge index, fault kind)`` — so a
decision never depends on evaluation order, and replaying the same seed
against the same traffic reproduces the same schedule bit for bit (the
foundation of the harness's ``--seed`` repro strings).

On top of the per-message probabilities the plan carries two pieces of
*imperative* state the scenario runner drives explicitly: blocked
directed edges (network partitions — every message on a blocked edge is
dropped) and slow addresses (every message to or from a slow address is
held back a fixed number of delivery events, modelling a degraded NIC
or an overloaded shard).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..net.transport import DELIVER, FaultDecision
from ..crypto.hashes import tagged_hash

_DOMAIN = b"simtest/plan"


@dataclass
class FaultPlan:
    """A seeded, stateless per-message fault schedule.

    Rates are independent probabilities per message; ``max_delay`` bounds
    the hold-back (in network delivery events) of a delayed message.
    ``blocked`` holds directed ``(source, dest)`` edges that drop
    everything; ``slow`` maps addresses to extra hold-back ticks.
    """

    seed: int
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    corrupt_rate: float = 0.0
    max_delay: int = 3
    blocked: set = field(default_factory=set)
    slow: dict = field(default_factory=dict)

    # -- imperative topology faults -------------------------------------------
    def block(self, source: str, dest: str) -> None:
        """Partition one directed edge: everything on it is dropped."""
        self.blocked.add((source, dest))

    def set_slow(self, address: str, ticks: int) -> None:
        """Hold every message touching ``address`` back ``ticks`` events."""
        if ticks <= 0:
            self.slow.pop(address, None)
        else:
            self.slow[address] = ticks

    def heal(self) -> None:
        """Clear all partitions and slow addresses (probabilities stay)."""
        self.blocked.clear()
        self.slow.clear()

    # -- stateless per-message decisions --------------------------------------
    def _fraction(self, source: str, dest: str, index: int, kind: bytes) -> float:
        """A uniform [0, 1) draw fully determined by the decision's
        coordinates — independent of call order and platform."""
        digest = tagged_hash(
            _DOMAIN,
            str(self.seed).encode(),
            source.encode(),
            dest.encode(),
            index.to_bytes(8, "big"),
            kind,
        )
        return int.from_bytes(digest[:8], "big") / 2**64

    def decide(self, source: str, dest: str, index: int, size: int) -> FaultDecision:
        """The :class:`~repro.net.transport.FaultInjector` plan hook."""
        if (source, dest) in self.blocked:
            return FaultDecision(drop=True)
        if self.drop_rate and self._fraction(source, dest, index, b"drop") < self.drop_rate:
            return FaultDecision(drop=True)
        corrupt = bool(
            self.corrupt_rate
            and self._fraction(source, dest, index, b"corrupt") < self.corrupt_rate
        )
        duplicate = int(
            self.duplicate_rate
            and self._fraction(source, dest, index, b"duplicate") < self.duplicate_rate
        )
        delay = 0
        if self.delay_rate and self._fraction(source, dest, index, b"delay") < self.delay_rate:
            delay = 1 + int(
                self._fraction(source, dest, index, b"delay-length") * self.max_delay
            )
        delay += self.slow.get(source, 0) + self.slow.get(dest, 0)
        if not (corrupt or duplicate or delay):
            return DELIVER
        return FaultDecision(corrupt=corrupt, duplicate=duplicate, delay=delay)
