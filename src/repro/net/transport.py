"""In-process loopback transport standing in for the paper's sockets.

The paper deploys the ResultStore "at the same machine of the outsourced
applications" (§IV-B remark) and talks to it over a local socket with
synchronous GETs and asynchronous PUTs.  This transport reproduces that
topology deterministically: named endpoints on a shared network object,
FIFO delivery, and per-message cost charged to the *sender's* platform
clock (wire time + syscall overhead are sender-side in our accounting).

An optional :class:`FaultInjector` perturbs delivery — drop, corrupt,
duplicate, or delay individual messages, or kill whole addresses — used
by the failure-injection tests and by the :mod:`repro.simtest` harness,
whose seeded :class:`~repro.simtest.schedule.FaultPlan` plugs in through
:attr:`FaultInjector.plan`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..errors import TransportError
from ..sgx.cost_model import SimClock


@dataclass(frozen=True)
class FaultDecision:
    """What the fault layer does to one message on one edge.

    ``duplicate`` is the number of *extra* copies delivered after the
    original; ``delay`` holds the message back until that many further
    network deliveries have happened (the loopback network has no
    independent timeline, so "later" is measured in delivery events).
    ``drop`` wins over everything else; ``corrupt`` applies to every
    delivered copy.
    """

    drop: bool = False
    corrupt: bool = False
    duplicate: int = 0
    delay: int = 0


#: The no-fault decision (shared instance: decisions are immutable).
DELIVER = FaultDecision()


def corrupt_payload(payload: bytes) -> bytes:
    """The canonical single-message corruption: flip the last byte."""
    if not payload:
        return payload
    return payload[:-1] + bytes([payload[-1] ^ 0xFF])


@dataclass
class FaultInjector:
    """Deterministic fault rules applied per (source, dest) edge.

    Index-based rules (``drop_indices`` / ``corrupt_indices``) count
    messages **per edge**: plain integer ``N`` matches the Nth message on
    *every* edge, and an ``(source, dest, N)`` tuple matches the Nth
    message on that one edge only.  (Historically a single global counter
    spanned all edges, so rule meanings silently shifted whenever
    unrelated traffic interleaved.)

    Address-based rules model whole-process failures: any message sent
    *to* an address in :attr:`dead_addresses` vanishes on the wire, which
    is how the cluster layer kills a ResultStore shard (requests reach
    the dead shard's socket and are never answered, so the caller's
    synchronous receive times out).

    :attr:`plan` accepts a schedule object with a
    ``decide(source, dest, index, size) -> FaultDecision`` method (e.g.
    :class:`repro.simtest.schedule.FaultPlan`); its decision is merged
    with the index rules.
    """

    drop_indices: set = field(default_factory=set)
    corrupt_indices: set = field(default_factory=set)
    dead_addresses: set[str] = field(default_factory=set)
    plan: object | None = None
    _edge_counters: dict[tuple[str, str], int] = field(default_factory=dict, init=False)

    def kill(self, address: str) -> None:
        """Silently discard all traffic to ``address`` from now on."""
        self.dead_addresses.add(address)

    def revive(self, address: str) -> None:
        """Let traffic reach ``address`` again."""
        self.dead_addresses.discard(address)

    def is_dead(self, address: str) -> bool:
        return address in self.dead_addresses

    def edge_count(self, source: str, dest: str) -> int:
        """Messages seen so far on one directed edge (the next message
        on that edge gets this index)."""
        return self._edge_counters.get((source, dest), 0)

    def _index_matches(self, rules: set, source: str, dest: str, index: int) -> bool:
        return index in rules or (source, dest, index) in rules

    def decide(self, payload: bytes, source: str = "", dest: str = "") -> FaultDecision:
        """Consume one edge index and decide this message's fate."""
        index = self._edge_counters.get((source, dest), 0)
        self._edge_counters[(source, dest)] = index + 1
        if dest in self.dead_addresses or source in self.dead_addresses:
            return FaultDecision(drop=True)
        drop = self._index_matches(self.drop_indices, source, dest, index)
        corrupt = self._index_matches(self.corrupt_indices, source, dest, index)
        duplicate = 0
        delay = 0
        if self.plan is not None:
            planned = self.plan.decide(source, dest, index, len(payload))
            drop = drop or planned.drop
            corrupt = corrupt or planned.corrupt
            duplicate = planned.duplicate
            delay = planned.delay
        if drop:
            return FaultDecision(drop=True)
        if not (corrupt or duplicate or delay):
            return DELIVER
        return FaultDecision(corrupt=corrupt, duplicate=duplicate, delay=delay)

    def apply(self, payload: bytes, source: str = "", dest: str = "") -> bytes | None:
        """Compatibility shim over :meth:`decide` for drop/corrupt-only
        callers: returns the (possibly corrupted) payload, or None to
        drop.  Duplicate/delay decisions need the network's delivery
        machinery and are ignored here."""
        decision = self.decide(payload, source=source, dest=dest)
        if decision.drop:
            return None
        if decision.corrupt and payload:
            return corrupt_payload(payload)
        return payload


class Endpoint:
    """One addressable mailbox on a network."""

    def __init__(self, network: "Network", address: str, clock: SimClock):
        self.network = network
        self.address = address
        self.clock = clock
        self._inbox: deque[tuple[str, bytes]] = deque()

    def send(self, dest: str, payload: bytes) -> None:
        self.network.deliver(self.address, dest, payload)

    def recv(self) -> tuple[str, bytes]:
        """Pop the next (source, payload); raises if the inbox is empty —
        the simulation is synchronous, so an empty inbox is a logic bug."""
        if not self._inbox:
            raise TransportError(f"endpoint {self.address!r} has no pending messages")
        return self._inbox.popleft()

    def pending(self) -> int:
        return len(self._inbox)

    def _push(self, source: str, payload: bytes) -> None:
        self._inbox.append((source, payload))


class Network:
    """A set of endpoints with FIFO loopback delivery."""

    def __init__(self, fault_injector: FaultInjector | None = None):
        self._endpoints: dict[str, Endpoint] = {}
        self._fault_injector = fault_injector
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        self.messages_corrupted = 0
        self.messages_duplicated = 0
        self.messages_delayed = 0
        self._taps: list[Callable[[str, str, bytes], None]] = []
        self._reactors: dict[str, object] = {}
        # Held-back messages: [remaining deliveries, source, dest, payload].
        self._delayed: list[list] = []
        self._releasing = False

    @property
    def fault_injector(self) -> FaultInjector | None:
        return self._fault_injector

    def ensure_fault_injector(self) -> FaultInjector:
        """Return the attached injector, installing an empty one if needed
        (the cluster layer kills shards through injector address rules)."""
        if self._fault_injector is None:
            self._fault_injector = FaultInjector()
        return self._fault_injector

    def endpoint(self, address: str, clock: SimClock) -> Endpoint:
        if address in self._endpoints:
            raise TransportError(f"address {address!r} already registered")
        ep = Endpoint(self, address, clock)
        self._endpoints[address] = ep
        return ep

    def add_tap(self, tap: Callable[[str, str, bytes], None]) -> None:
        """Register a passive observer (the honest-but-curious adversary in
        the security tests watches the wire through a tap)."""
        self._taps.append(tap)

    def deliver(self, source: str, dest: str, payload: bytes) -> None:
        sender = self._endpoints.get(source)
        receiver = self._endpoints.get(dest)
        if sender is None or receiver is None:
            raise TransportError(f"unknown endpoint in {source!r} -> {dest!r}")
        sender.clock.charge_network(len(payload))
        self.messages_sent += 1
        self.bytes_sent += len(payload)
        for tap in self._taps:
            tap(source, dest, payload)
        # Every delivery event ages the held-back queue by one tick, so a
        # delayed message overtakes exactly `delay` later sends (reorder).
        for entry in self._delayed:
            entry[0] -= 1
        decision = DELIVER
        if self._fault_injector is not None:
            decision = self._fault_injector.decide(payload, source=source, dest=dest)
        if decision.drop:
            self.messages_dropped += 1
            self._release_due()
            return
        if decision.corrupt:
            self.messages_corrupted += 1
            payload = corrupt_payload(payload)
        if decision.delay > 0:
            self.messages_delayed += 1
            self._delayed.append([decision.delay, source, dest, payload])
        else:
            self._push_and_pump(source, dest, payload)
        for _ in range(decision.duplicate):
            self.messages_duplicated += 1
            self._push_and_pump(source, dest, payload)
        self._release_due()

    def _push_and_pump(self, source: str, dest: str, payload: bytes) -> None:
        receiver = self._endpoints.get(dest)
        if receiver is None:
            return  # endpoint withdrawn while the message was in flight
        receiver._push(source, payload)
        reactor = self._reactors.get(dest)
        if reactor is not None:
            reactor.pump()

    def _release_due(self) -> int:
        """Deliver every held-back message whose countdown expired.

        Reentrancy-guarded: releasing a message can pump a reactor whose
        reply re-enters :meth:`deliver`; the nested call only ages the
        queue and leaves the actual release to the outermost frame.
        """
        if self._releasing:
            return 0
        self._releasing = True
        released = 0
        try:
            while True:
                index = next(
                    (i for i, e in enumerate(self._delayed) if e[0] <= 0), None
                )
                if index is None:
                    break
                _, source, dest, payload = self._delayed.pop(index)
                injector = self._fault_injector
                if injector is not None and (
                    dest in injector.dead_addresses
                    or source in injector.dead_addresses
                ):
                    self.messages_dropped += 1
                    continue  # the address died while the message was held
                released += 1
                self._push_and_pump(source, dest, payload)
        finally:
            self._releasing = False
        return released

    def flush_delayed(self) -> int:
        """Force every held-back message out now (end-of-scenario healing);
        returns the number delivered."""
        released = 0
        for _ in range(1000):  # releases can enqueue new delayed messages
            if not self._delayed:
                break
            for entry in self._delayed:
                entry[0] = 0
            released += self._release_due()
        return released

    def snapshot(self) -> dict:
        """Canonical ``net.<metric>`` counters for the metrics registry."""
        return {
            "net.messages": self.messages_sent,
            "net.bytes": self.bytes_sent,
            "net.dropped": self.messages_dropped,
            "net.corrupted": self.messages_corrupted,
            "net.duplicated": self.messages_duplicated,
            "net.delayed": self.messages_delayed,
            "net.held": len(self._delayed),
        }

    def set_reactor(self, address: str, reactor) -> None:
        """Attach a server reactor: its ``pump()`` runs on each delivery,
        modelling a service process that drains its socket as data lands."""
        if address not in self._endpoints:
            raise TransportError(f"cannot attach reactor to unknown address {address!r}")
        self._reactors[address] = reactor
