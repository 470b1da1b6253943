"""Client-side routing across a sharded ResultStore cluster.

A :class:`ClusterRouter` is every application's store client: its
:class:`~repro.core.runtime.DedupRuntime` and
:class:`~repro.engine.PipelineEngine` speak to the shards only through
it, one per-shard :class:`~repro.net.rpc.RpcClient` underneath — also
in the paper's Fig. 1, where the one shard sits on the app machine.
Every request is routed by its tag's position on the
:class:`~repro.cluster.ring.ShardRing`.

One request path
----------------
Routing exists once, as *submit a group, settle a group*:

* A **GET group** shares the owner its items ask next and travels to
  it as one record.  Each item is a :class:`GetWalk` over its tag's
  owners: first the one the plan picks from its current replica set
  (the less-loaded copy, :meth:`ClusterRouter._plan`), then the others
  in ring order.  A hit is returned; a live owner's *miss*, or an owner
  that did not answer (dead, garbled, or refused by its circuit
  breaker), leaves it for the next *step*, which sends one record per
  next owner for all such items of the call.  The first hit wins,
  counts one **failover** when any owner before it failed, and
  read-repairs every live owner that missed (one one-way PUT batch per
  missed shard per step), so a shard that lost or never received an
  entry converges back.  When no owner answered at all the item is
  *unavailable* (``found=False``, reason ``no_live_owner``), never a
  plain miss.  The repaired ciphertext is still the store-side
  ``(r, [k], [res])`` triple: the router never sees plaintext, and a
  tampered replica is caught by the runtime's Fig. 3 MAC/tag
  verification exactly as a tampered single store would be.
* A **PUT group** is fanned out as one record per owner shard (every
  item goes to its primary and its ``replication_factor - 1`` distinct
  successors).  Settling merges the shards' acks by one rule: an item's
  primary is authoritative, another owner's ack stands in while the
  primary is silent, and every further ack is absorbed into the replica
  counters.  An item nobody answered is ``accepted=False`` with reason
  ``no_live_owner``.

What differs between the group entry points is only how a shard send
is made and when the group is settled:

* ``call_batch`` sends with blocking shard calls and settles on the
  spot, step by step for GETs (the first step planned over the whole
  call, as :meth:`ClusterRouter.plan_gets` partitions them) or the
  whole batch at once (PUTs), and rejoins the answers in item order.
* ``submit_gets``/``wait_gets`` and ``submit_puts``/``wait_puts`` send
  through the shard clients' pipelined slots, so several groups are in
  flight together, and settle when the caller waits; the pipelined
  engine submits :class:`GetWalk` items and runs the steps itself.
* ``send_oneway_batch`` sends fire-and-forget; the group is settled by
  :meth:`ClusterRouter.drain_responses` from whatever acks have arrived,
  so a fully-dead owner set shows up as *unacknowledged*, never as a
  silent success.

A lone request is a group of one: ``call``, ``submit``/``wait`` and
``send_oneway`` are those entry points over a list of one, and answer in
band like them (a PUT no owner answered is ``accepted=False``,
``no_live_owner``).  On the wire a lone item still travels as its plain
message, not as a batch of one.

Every shard exchange goes through one guarded helper, so a shard's
circuit breaker is asked once per send, a walk step's included, and
learns from every reply; ``get_timeouts`` counts failed sends.
The router speaks to N per-shard clients, each with its own request-id
space, so it hands out router-level slot ids and maps shard-local ids
back onto them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass, field
from itertools import repeat

from .ring import ShardRing
from ..errors import (
    ChannelError,
    NoLiveOwnerError,
    ProtocolError,
    TransportError,
)
from ..net.circuit import OPEN, BreakerConfig, CircuitBreaker
from ..net.rpc import RetryPolicy
from ..obs.metrics import namespaced
from ..obs.tracer import NULL_TRACER
from ..net.messages import (
    BatchPutResponse,
    ErrorMessage,
    GetRequest,
    GetResponse,
    Message,
    PutRequest,
    PutResponse,
    with_request_id,
)
from ..net.rpc import RpcClient

# Machine-readable reason carried by GetResponse/PutResponse when every
# owner shard of a tag was unreachable (== NoLiveOwnerError.code).
NO_LIVE_OWNER = NoLiveOwnerError.code

# Failures that mean "this shard did not serve the request": the send
# vanished (dead shard), the reply never arrived, a record was mangled
# on the wire, or the shard could not even parse the mangled record.
_SHARD_FAILURES = (TransportError, ChannelError, ProtocolError)

# How a group's shard sends are made: a blocking call answered on the
# spot, a pipelined slot settled by a later wait, or fire-and-forget.
_SYNC, _PIPELINED, _ONEWAY = "sync", "pipelined", "oneway"
# The shard client's method a (mode, kind) send and a pipelined wait call.
_SENDS = {
    (_SYNC, "get"): "call_batch", (_SYNC, "put"): "call_batch",
    (_PIPELINED, "get"): "submit_gets", (_PIPELINED, "put"): "submit_puts",
    (_ONEWAY, "put"): "send_oneway_batch",
}
_WAITS = {"get": "wait_gets", "put": "wait_puts"}
# A GET every live owner missed (messages are immutable).
_MISS = GetResponse(found=False)


@dataclass
class RouterStats:
    """Cluster-side counters, disjoint from the runtime's per-call stats."""

    gets_routed: int = 0
    puts_routed: int = 0
    get_timeouts: int = 0
    put_timeouts: int = 0
    failovers: int = 0
    read_repairs: int = 0
    unavailable: int = 0
    replica_puts: int = 0
    replica_put_acks: int = 0
    replica_put_rejects: int = 0
    repair_acks: int = 0
    repair_rejects: int = 0
    # Calls the per-shard circuit breaker refused without touching the
    # wire (failing fast instead of paying another timeout).
    circuit_skips: int = 0
    # Records the walk's steps past the primaries put on the wire.
    walk_records: int = 0

    #: Counters with inconsistent attribute spelling and their
    #: normalized ``router.<metric>`` names (events are plural nouns).
    _RENAMES = {
        "gets_routed": "gets",
        "puts_routed": "puts",
        "unavailable": "unavailable_gets",
        "replica_put_rejects": "replica_put_rejections",
        "repair_rejects": "repair_rejections",
    }

    def snapshot(self) -> dict:
        """The counters under canonical ``router.<metric>`` keys.
        ``get_timeouts`` / ``put_timeouts`` count failed sends (a walk
        step's included), not items."""
        return namespaced("router", asdict(self), renames=self._RENAMES)


class GetWalk:
    """One GET item walking its tag's owners, one per step, until a hit,
    a miss from every live owner, or no owner is left.  Its first ask
    goes to the owner the router's plan picks from the tag's current
    replica set; the other owners follow in ring order."""

    __slots__ = ("request", "ring", "owners", "missed", "failed")

    def __init__(self, request: GetRequest):
        self.request = request
        # The tag's reachable owners in ring order, looked up once.
        self.ring: list[str] | None = None
        # The owners still to ask, next first; None until planned.
        self.owners: list[str] | None = None
        self.missed: list[str] = []  # live owners that answered miss
        self.failed = 0  # owners that did not answer

    @property
    def tag(self) -> bytes:
        return self.request.tag


@dataclass
class _GetGroup:
    """A submitted GET group: one step of walks bound for one owner."""

    requests: list  # its GETs, or walks under way
    mode: str
    # The owner the group was offered to; None when it has no owner.
    shard: str | None = None
    # What the send returned: the shard's responses (blocking send), its
    # slot id (pipelined send), or None when the shard did not take it
    # (refused or failed: the walks go on to their next owners).
    sent: object = None
    # Submitted as plain requests: waiting walks them to the end.
    finish: bool = True


@dataclass
class _PutGroup:
    """A submitted PUT group: one record per owner shard of its items."""

    requests: list
    mode: str
    # Per item: its primary shard id, "" when it has no reachable owner.
    primaries: list = field(default_factory=list)
    # Per item: the verdict merged so far (None while nobody answered).
    verdicts: list = field(default_factory=list)
    # Blocking and pipelined sends, in wire order:
    # (shard, responses or slot id, item positions).
    subs: list = field(default_factory=list)
    # One-way sends: the slot id the merged ack is emitted under, once.
    router_id: int = 0
    emitted: bool = False


def _group(heads: list) -> list[tuple[str | None, list[int]]]:
    """``(owner, positions)`` per distinct owner in ``heads``, in shard
    order, then each position whose owner is ``None`` on its own."""
    groups: dict[str, list[int]] = {}
    orphans: list[int] = []
    for i, head in enumerate(heads):
        if head is None:
            orphans.append(i)
        else:
            groups.setdefault(head, []).append(i)
    return sorted(groups.items()) + [(None, [i]) for i in orphans]


class ClusterRouter:
    """Routes one application's store traffic across the shard ring."""

    def __init__(
        self,
        ring: ShardRing,
        clients: dict[str, RpcClient],
        replication_factor: int,
        tracer=NULL_TRACER,
        clock=None,
        breaker_config: BreakerConfig | None = None,
    ):
        if replication_factor < 1:
            raise ProtocolError("replication factor must be >= 1")
        self.ring = ring
        self.replication_factor = replication_factor
        self._clients = dict(clients)
        self.stats = RouterStats()
        self.breaker_config = breaker_config
        self._breakers: dict[str, CircuitBreaker] = {}
        # Observability: spans are recorded on the application machine's
        # clock (routing happens there); NULL_TRACER makes it all no-ops.
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.clock = clock
        self._next_router_id = 1
        # Pipelined groups: router slot id -> submitted, not yet waited on.
        self._pipeline: dict[int, _GetGroup | _PutGroup] = {}
        # One-way sends awaiting their ack:
        # (shard, shard-local id) -> (group, item positions).
        self._oneway: dict[tuple[str, int], tuple[_PutGroup, list[int]]] = {}
        # Read repairs queued by the current step: shard -> PUTs; then
        # the batches sent, (shard, shard-local id) -> item count, whose
        # acks are absorbed on drain, never surfaced to the runtime.
        self._repairs: dict[str, list[PutRequest]] = {}
        self._absorb: dict[tuple[str, int], int] = {}

    # -- topology ------------------------------------------------------------
    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._clients))

    @property
    def in_transition(self) -> bool:
        """True while the ring holds a dual-ownership migration window —
        a single join/drain or a planned multi-shard window
        (:class:`~repro.cluster.ring.TopologyPlan`); either way there is
        exactly one window at a time."""
        return self.ring.in_transition

    def attach_shard(self, shard_id: str, client: RpcClient) -> None:
        """Connect to a shard that joined the ring live."""
        if shard_id in self._clients:
            raise ProtocolError(f"already connected to shard {shard_id!r}")
        self._clients[shard_id] = client
        if self._retry_policy is not None:
            client.retry_policy = self._retry_policy

    def detach_shard(self, shard_id: str) -> None:
        """Forget a shard that left the ring (its pending acks are void)."""
        self._clients.pop(shard_id, None)
        self._breakers.pop(shard_id, None)

    # -- hardening knobs -------------------------------------------------------
    _retry_policy: "RetryPolicy | None" = None

    @property
    def retry_policy(self) -> RetryPolicy | None:
        """The policy :meth:`set_retry_policy` gave every shard client."""
        return self._retry_policy

    def set_retry_policy(self, policy: RetryPolicy | None) -> None:
        """Apply one retry policy to every per-shard client (including
        shards attached later)."""
        self._retry_policy = policy
        for client in self._clients.values():
            client.retry_policy = policy

    def enable_breakers(self, config: BreakerConfig | None = None) -> None:
        """Turn on per-shard circuit breakers (idempotent; existing
        breaker state is discarded)."""
        self.breaker_config = config or BreakerConfig()
        self._breakers.clear()

    def _breaker(self, shard: str) -> CircuitBreaker | None:
        if self.breaker_config is None:
            return None
        breaker = self._breakers.get(shard)
        if breaker is None:
            breaker = CircuitBreaker(self.breaker_config, clock=self.clock)
            self._breakers[shard] = breaker
        return breaker

    @property
    def records_sent(self) -> int:
        return sum(c.records_sent for c in self._clients.values())

    def _read_owners(self, tag: bytes) -> list[str]:
        """Reachable shards a GET of ``tag`` may consult, in ring order.
        During a topology transition (dual-ownership window) this is the
        old owners first with the pending owners as failover, so a tag
        stays readable whether or not its range has been handed off yet.
        Under a planned multi-shard window the union may span several
        changed shards (two joiners plus a leaver, say) — the ring
        computes it per range, the router just filters to connected
        clients."""
        owners = self.ring.read_owners(tag, self.replication_factor)
        return list(filter(self._clients.__contains__, owners))

    def _owners_of(self, item) -> list[str]:
        """The owners a GET item has yet to ask, next first: a plain GET's
        in ring order, a walk's as planned (in ring order if never planned)."""
        if type(item) is not GetWalk:
            return self._read_owners(item.tag)
        if item.owners is None:
            item.ring = self._read_owners(item.tag)
            item.owners = list(item.ring)
        return item.owners

    def _write_owners(self, tag: bytes) -> list[str]:
        """Reachable shards a PUT must land on.  During a transition
        writes go to the *pending* owners — the post-plan topology, even
        when several membership/weight changes land in the same window —
        so no update accepted inside the window is lost when its range
        commits."""
        owners = self.ring.write_owners(tag, self.replication_factor)
        return list(filter(self._clients.__contains__, owners))

    # -- the one guarded shard exchange ----------------------------------------
    def _guarded(self, shard: str, method: str, args: tuple, answers: bool, gate: bool = True,
                 span: str | None = None, **attrs):
        """Call the shard client's ``method(*args)`` behind its breaker.

        ``gate`` asks the breaker first: a refusal costs one skip and no
        wire traffic.  ``answers`` says the exchange returns the shard's
        reply, which is what closes a breaker again.  Returns what the
        exchange returned, or ``None`` when the shard did not serve it
        (refused or failed): either way the caller moves on to the
        next owner and never offers this send to the breaker again.
        """
        breaker = None if self.breaker_config is None else self._breaker(shard)
        with (self.tracer if span else NULL_TRACER).span(
            span, clock=self.clock, shard=shard, **attrs
        ) as open_span:
            if gate and breaker is not None and not breaker.allow():
                self.stats.circuit_skips += 1
                open_span.mark("circuit_open")
                return None
            try:
                result = getattr(self._clients[shard], method)(*args)
            except _SHARD_FAILURES:
                if breaker is not None:
                    breaker.record_failure()
                open_span.mark("timeout")
                return None
        if answers and breaker is not None:
            breaker.record_success()
        return result

    def _send(self, shard: str, kind: str, sub: list, mode: str):
        """Put one shard's share of a group on the wire in the group's
        send mode (the shard client sends a lone item as itself).
        One-way sends are untraced: nothing waits on them."""
        return self._guarded(
            shard, _SENDS[mode, kind], (sub,), answers=mode is _SYNC,
            span=None if mode is _ONEWAY else f"router.shard_{kind}", items=len(sub),
        )

    def _collect(self, shard: str, kind: str, sent, n_items: int, mode: str):
        """A sent share's per-item replies: already there after a
        blocking send, waited for (behind the breaker's bookkeeping, but
        not its gate: the request is already out) after a pipelined one."""
        if mode is _SYNC:
            return sent
        return self._guarded(
            shard, _WAITS[kind], (sent, n_items), answers=True, gate=False,
            span=f"router.shard_{kind}", items=n_items,
        )

    # -- GET: one walk, in steps -------------------------------------------------
    def _submit_get_group(self, items: list, mode: str, shard: str | None) -> _GetGroup:
        """Send one step of GETs or walks to the owner they ask next
        (``None``: they have none; callers group by :meth:`plan_gets`)."""
        group = _GetGroup(requests=items, mode=mode, shard=shard)
        if shard is not None:
            walking = type(items[0]) is GetWalk
            skips = self.stats.circuit_skips
            group.sent = self._send(
                shard, "get", [w.request for w in items] if walking else items, mode
            )
            first = items[0]
            if walking and (first.missed or first.failed) and self.stats.circuit_skips == skips:
                self.stats.walk_records += 1
        return group

    def _settle_get_group(self, group: _GetGroup) -> list:
        """Per item, in order: its answer, or its walk if it goes on."""
        items, shard = group.requests, group.shard
        replies = None
        if group.sent is not None:
            replies = self._collect(shard, "get", group.sent, len(items), group.mode)
        if shard is not None and replies is None:
            self.stats.get_timeouts += 1
        elif replies is not None and len(replies) != len(items):
            # Surface it rather than shift the caller's correlation.
            raise ProtocolError(
                f"shard {shard!r} answered {len(replies)} of {len(items)} GETs"
            )
        if replies is None:
            return [self._advance(item, shard, None) for item in items]
        return list(map(self._advance, items, repeat(shard), replies))

    def _advance(self, item, shard: str | None, reply: Message | None):
        """Fold ``shard``'s reply (``None``: it did not answer) into a GET
        or its walk; returns the item's answer, or its walk if it goes on."""
        if reply is not None and not isinstance(reply, GetResponse):
            raise ProtocolError(
                f"shard {shard!r} answered GET with {type(reply).__name__}"
            )
        walk = item if type(item) is GetWalk else None
        if walk is None or not (walk.missed or walk.failed):  # its first ask
            self.stats.gets_routed += 1
            if reply is not None and reply.found:
                return reply
            walk = walk or GetWalk(item)
        owners = self._owners_of(walk)
        if shard in owners:
            owners.remove(shard)
        if shard is not None:
            if reply is None:
                walk.failed += 1
            elif reply.found:
                if walk.failed:
                    self.stats.failovers += 1
                    self.tracer.event("router.failover", clock=self.clock, timeouts=walk.failed)
                for missed in walk.missed:
                    self._queue_read_repair(missed, walk.request, reply)
                return reply
            else:
                walk.missed.append(shard)
        if owners:
            return walk
        if walk.missed:
            return _MISS
        # No owner answered: the item is unavailable, not absent.  Fail
        # safe: the caller recomputes, exactly like a miss.
        self.stats.unavailable += 1
        return GetResponse(found=False, reason=NO_LIVE_OWNER)

    def _walk(self, results: list, pending) -> list:
        """Answer the GETs or walks at ``pending`` positions of ``results``
        in place by blocking steps, each with its read repairs."""
        while pending:
            items = [results[p] for p in pending]
            for shard, positions in self._plan(items):
                group = self._submit_get_group([items[q] for q in positions], _SYNC, shard)
                for q, outcome in zip(positions, self._settle_get_group(group)):
                    results[pending[q]] = outcome
            if self._repairs:
                self._send_repairs()
            pending = [p for p in pending if type(results[p]) is GetWalk]
        return results

    def _queue_read_repair(
        self, shard: str, request: GetRequest, hit: GetResponse
    ) -> None:
        """Queue a re-PUT of a hit for a live owner that answered miss."""
        self._repairs.setdefault(shard, []).append(PutRequest(
            tag=request.tag,
            challenge=hit.challenge,
            wrapped_key=hit.wrapped_key,
            sealed_result=hit.sealed_result,
            app_id=request.app_id,
        ))

    def _send_repairs(self) -> None:
        """One one-way PUT batch per missed shard; drain absorbs the acks."""
        repairs, self._repairs = self._repairs, {}
        for shard, puts in repairs.items():
            local_id = self._guarded(
                shard, "send_oneway_batch", (puts,), answers=False,
                span="router.read_repair", items=len(puts),
            )
            if local_id is not None:
                self._absorb[(shard, local_id)] = len(puts)
                self.stats.read_repairs += len(puts)

    # -- PUT: one fan-out, one verdict merger --------------------------------------
    def _submit_put_group(self, requests: list, mode: str) -> _PutGroup:
        """Fan a PUT group out: one record to every owner shard of its
        items, carrying the items that shard owns."""
        if not all([isinstance(r, PutRequest) for r in requests]):
            raise ProtocolError(
                "cluster router routes a uniform list of GETs or PUTs, not "
                + ", ".join(sorted({type(r).__name__ for r in requests}))
            )
        self.stats.puts_routed += len(requests)
        owners_per_item = [self._write_owners(r.tag) for r in requests]
        group = _PutGroup(
            requests=requests, mode=mode,
            primaries=[owners[0] if owners else "" for owners in owners_per_item],
            verdicts=[None] * len(requests),
        )
        shares: dict[str, list[int]] = {}
        for i, owners in enumerate(owners_per_item):
            for k, shard in enumerate(owners):
                shares.setdefault(shard, []).append(i)
                if k:
                    self.stats.replica_puts += 1
        # A lone PUT goes out in ring order, primary first; a group's
        # records go out in shard order.
        for shard in (shares if len(requests) == 1 else sorted(shares)):
            positions = shares[shard]
            sent = self._send(shard, "put", [requests[p] for p in positions], mode)
            if sent is None:
                self.stats.put_timeouts += 1
            elif mode is _ONEWAY:
                self._oneway[(shard, sent)] = (group, positions)
            else:
                group.subs.append((shard, sent, positions))
        return group

    def _settle_put_group(self, group: _PutGroup) -> list[Message]:
        """Per-item verdicts of a blocking or pipelined PUT group; an item
        no owner answered is ``accepted=False`` with ``no_live_owner``."""
        for shard, sent, positions in group.subs:
            acks = self._collect(shard, "put", sent, len(positions), group.mode)
            if acks is None:
                self.stats.put_timeouts += 1
            else:
                self._merge_put_acks(group, shard, positions, acks)
        return [
            verdict if verdict is not None
            else PutResponse(accepted=False, reason=NO_LIVE_OWNER)
            for verdict in group.verdicts
        ]

    def _merge_put_acks(
        self, group: _PutGroup, shard: str, positions: list[int], acks: list
    ) -> None:
        """The one verdict rule: an item's primary is authoritative,
        another owner's ack stands in while the primary is silent, and
        every further ack is absorbed into the replica counters."""
        for p, ack in zip(positions, acks):
            held = group.verdicts[p]
            if group.emitted or (held is not None and group.primaries[p] != shard):
                self._count_replica_ack(ack)
                continue
            if held is not None:
                self._count_replica_ack(held)  # a stand-in the primary displaces
            group.verdicts[p] = ack

    def _count_replica_ack(self, response: Message) -> None:
        if isinstance(response, PutResponse) and response.accepted:
            self.stats.replica_put_acks += 1
        else:
            self.stats.replica_put_rejects += 1

    # -- compositions -------------------------------------------------------------
    def _park(self, group) -> int:
        """Keep a pipelined group for its waiter; returns its slot id."""
        router_id = self._next_router_id
        self._next_router_id += 1
        self._pipeline[router_id] = group
        return router_id

    def _claim(self, router_id: int, kind: type, n_items: int | None):
        """Take a parked group out for settling.  A slot of another
        kind, or a wrong item count, is refused and left in place."""
        group = self._pipeline.get(router_id)
        if not isinstance(group, kind):
            raise ProtocolError(
                f"router slot {router_id} was never submitted this way "
                "(or already waited on)"
            )
        if n_items is not None and n_items != len(group.requests):
            raise ProtocolError(
                f"router slot {router_id} has {len(group.requests)} item(s), "
                f"waiter expected {n_items}"
            )
        del self._pipeline[router_id]
        return group

    def _plan(self, items: list) -> list[tuple[str | None, list[int]]]:
        """``(owner, positions)`` per group of GET items asking the same
        owner first, in shard order; an item with no reachable owner is a
        group of its own under ``None``.

        A walk under way asks its next owner, a plain GET its primary.  A
        fresh walk starts at its primary; scanning in item order until
        nothing moves, it moves to the least-loaded other owner of its
        current replica set (the first ``replication_factor`` of its
        ring-order owners; in a window, the old owners), the earliest in
        ring order on a tie, whenever that owner would then hold fewer
        items than the one it leaves, and never onto an open breaker while
        a replica's is not open.  It leaves with its owners to ask: the
        planned one, then the rest in ring order."""
        heads: list[str | None] = []
        loads: defaultdict = defaultdict(int)
        fresh: list[int] = []
        for i, item in enumerate(items):
            if type(item) is GetWalk and not (item.missed or item.failed):
                if item.ring is None:
                    item.ring = self._read_owners(item.request.tag)
                owners = item.ring
                fresh.append(i)
            else:
                owners = self._owners_of(item)
            heads.append(owners[0] if owners else None)
            loads[heads[-1]] += 1
        choices = [(i, replicas) for i in fresh
                   if len(replicas := items[i].ring[:self.replication_factor]) > 1]
        if choices and self._breakers:
            opened = {shard for shard, b in self._breakers.items() if b.state == OPEN}
            choices = [(i, [s for s in replicas if s not in opened] or replicas)
                       for i, replicas in choices]
        moved = bool(choices)
        while moved:
            moved = False
            for i, owners in choices:
                here, there = heads[i], min(owners, key=loads.__getitem__)
                if loads[there] + 1 < loads[here]:
                    loads[here] -= 1
                    loads[there] += 1
                    heads[i], moved = there, True
        for i in fresh:
            walk, head = items[i], heads[i]
            walk.owners = [head, *filter(head.__ne__, walk.ring)] if head else []
        return _group(heads)

    # -- group entry points ------------------------------------------------------
    def call_batch(self, requests: list[Message]) -> list[Message]:
        """Route a uniform batch and block on every answer, rejoined in
        item order.  GETs walk their owners in blocking steps, each one
        record per next owner (first the planned copies), so a shard that
        fails its sub-batch does not poison the other shards' items;
        PUTs fan out as one group, one record per owner shard."""
        requests = list(requests)
        if not requests:
            return []
        if set(map(type, requests)) != {GetRequest}:
            with self.tracer.span("router.put", clock=self.clock, items=len(requests)):
                return self._settle_put_group(self._submit_put_group(requests, _SYNC))
        with self.tracer.span("router.get", clock=self.clock, items=len(requests)):
            return self._walk([GetWalk(r) for r in requests], range(len(requests)))

    def plan_gets(self, requests: list) -> list[list[int]]:
        """Partition GET indices by the owner each asks next: for a fresh
        :class:`GetWalk` the copy :meth:`_plan` picks (its primary unless
        another replica evens out the groups), for a walk under way its
        next owner, for a plain GET its primary.

        Each group can ship as one channel record to one shard, so a
        round of N GETs across S shards costs S records — and the S
        shards serve their sub-batches concurrently.  Items with no live
        owner form their own group (answered without touching the wire).
        """
        return [positions for _, positions in self._plan(requests)]

    def submit_gets(self, requests: list) -> int:
        """Submit one :meth:`plan_gets` group (GETs, or walks, that ask
        the same owner next) as a single record; returns a router slot
        id for :meth:`wait_gets`."""
        requests = list(requests)
        owners = self._owners_of(requests[0]) if requests else []
        group = self._submit_get_group(requests, _PIPELINED, owners[0] if owners else None)
        group.finish = not requests or type(requests[0]) is not GetWalk
        return self._park(group)

    def wait_gets(self, router_id: int, n_items: int | None = None) -> list:
        """Settle one GET group; per-item semantics match ``call_batch``.

        A group of plain GETs is answered in full: items its shard missed
        or did not serve walk the remaining owners in blocking steps, and
        items no owner answered come back ``found=False`` / ``no live
        owner``.  A group of :class:`GetWalk` items is settled one step:
        an unresolved item comes back as its walk, for the caller to
        submit with the next step.  Read repairs go out once no GET group
        is left in flight.
        """
        group = self._claim(router_id, _GetGroup, n_items)
        results = self._settle_get_group(group)
        if group.finish:
            return self._walk(results, [p for p, r in enumerate(results) if type(r) is GetWalk])
        if self._repairs and not any(type(g) is _GetGroup for g in self._pipeline.values()):
            self._send_repairs()
        return results

    def plan_puts(self, requests: list[PutRequest]) -> list[list[int]]:
        """Partition PUT indices by primary owner shard.

        Like :meth:`plan_gets`, each group's copies ship as one channel
        record per owner shard instead of one record per item, so a
        round of N replicated PUTs costs O(shards) records.  Items with
        no live owner form their own group (answered without touching
        the wire)."""
        heads = [(self._write_owners(r.tag) or [None])[0] for r in requests]
        return [positions for _, positions in _group(heads)]

    def submit_puts(self, requests: list[PutRequest]) -> int:
        """Submit one :meth:`plan_puts` group: one batch record to every
        owner shard of the group's items; returns a router slot id for
        :meth:`wait_puts`."""
        return self._park(self._submit_put_group(list(requests), _PIPELINED))

    def wait_puts(self, router_id: int, n_items: int | None = None) -> list[Message]:
        """Settle one PUT group; per-item semantics match
        ``call_batch``: the primary's verdict is authoritative where it
        is live, replica verdicts are absorbed into router counters, and
        items no live owner answered come back ``accepted=False`` with a
        ``no live owner`` reason."""
        return self._settle_put_group(self._claim(router_id, _PutGroup, n_items))

    def send_oneway_batch(self, requests: list[PutRequest]) -> int:
        """Fire-and-forget a PUT batch, one record per owner shard; its
        merged verdicts come out of :meth:`drain_responses` under the
        returned slot id."""
        group = self._submit_put_group(list(requests), _ONEWAY)
        group.router_id = self._next_router_id
        self._next_router_id += 1
        return group.router_id

    # -- lone entry points: a group of one -----------------------------------------
    # Kept only because benchmarks/e2e/tracing.py wraps them by name
    # (ROADMAP 2).  They run the group entry points under private names,
    # so a wrapper patched over a public name sees each public call once.
    _call_batch, _submit_gets, _wait_gets = call_batch, submit_gets, wait_gets
    _submit_puts, _wait_puts, _send_oneway_batch = submit_puts, wait_puts, send_oneway_batch

    def call(self, request: Message) -> Message:
        """Route one request and block on its answer."""
        (reply,) = self._call_batch([request])
        return reply

    def submit(self, request: Message) -> int:
        """Put one request on the wire; returns a router slot id for :meth:`wait`."""
        submit_group = self._submit_gets if isinstance(request, GetRequest) else self._submit_puts
        return submit_group([request])

    def wait(self, router_id: int) -> Message:
        """Settle one :meth:`submit`-ted request as :meth:`call` would."""
        slot = self._pipeline.get(router_id)
        wait_group = self._wait_gets if isinstance(slot, _GetGroup) else self._wait_puts
        return wait_group(router_id, 1)[0]

    def send_oneway(self, request: Message) -> int:
        """Fire-and-forget one PUT; its verdict comes out of :meth:`drain_responses`."""
        return self._send_oneway_batch([request])

    # -- one-way sends: settled by drain_responses -------------------------------
    def drain_responses(self) -> list[Message]:
        """Settle one-way groups from the acks that have arrived: drain
        every shard client, merge each ack into its group, and emit one
        response per group, under its router slot id, once every item of
        it has a verdict.

        Acks that arrive after a group was emitted, read-repair acks,
        and stale responses from revived shards are absorbed into router
        counters instead of reaching the runtime, whose PUT accounting
        therefore sees the cluster exactly as it would see one store.
        """
        touched: dict[int, _PutGroup] = {}
        for shard in sorted(self._clients):
            for response in self._clients[shard].drain_responses():
                key = (shard, response.request_id)
                if isinstance(response, BatchPutResponse):
                    acks = list(response.items)
                else:
                    acks = [response]
                repairs = self._absorb.pop(key, 0)
                if repairs:
                    accepted = sum(
                        isinstance(ack, PutResponse) and ack.accepted
                        for ack in acks[:repairs]
                    )
                    self.stats.repair_acks += accepted
                    self.stats.repair_rejects += repairs - accepted
                    continue
                # Unknown id: a stale response from a revived shard, or a
                # reply to a send the router already accounted.  Dropped.
                group, positions = self._oneway.pop(key, (None, ()))
                if group is None or len(acks) != len(positions) or not all(
                    [isinstance(ack, (PutResponse, ErrorMessage)) for ack in acks]
                ):
                    continue  # malformed: those items stay unacknowledged
                self._merge_put_acks(group, shard, positions, acks)
                touched[group.router_id] = group
        out: list[Message] = []
        for router_id, group in touched.items():
            if group.emitted or any([v is None for v in group.verdicts]):
                continue
            group.emitted = True
            if len(group.requests) == 1:  # a group of one answers as itself
                out.append(with_request_id(group.verdicts[0], router_id))
                continue
            # A shard's error verdict for its item: rejected is the closest
            # per-item shape a merged batch response can carry.  The reason
            # stays machine-readable: errors.StoreError's code plus the
            # numeric wire code.
            out.append(BatchPutResponse(
                items=tuple([
                    PutResponse(accepted=False, reason=f"store_error:{v.code}")
                    if isinstance(v, ErrorMessage) else v
                    for v in group.verdicts
                ]),
                request_id=router_id,
            ))
        return out

    # -- observability ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Routing counters plus breaker states and the per-shard
        clients' retry/duplication counters, aggregated under canonical
        ``router.<metric>`` keys (``router.breaker.<shard>.state`` per
        breaker)."""
        snap = self.stats.snapshot()
        for key, counter in (
            ("retries", "retries"), ("backoff_seconds_total", "backoff_seconds_total"),
            ("records_rejected", "records_rejected"),
            ("duplicate_responses_dropped", "duplicates_dropped"),
            ("pipelined_submits", "submits"), ("pipeline_max_inflight", "max_inflight"),
        ):
            snap[f"router.{key}"] = sum(getattr(c, counter) for c in self._clients.values())
        snap["router.in_transition"] = int(self.in_transition)
        snap["router.circuit_opens"] = sum(
            b.opens for b in self._breakers.values()
        )
        snap["router.open_circuits"] = sum(
            1 for b in self._breakers.values() if b.state == OPEN
        )
        for shard in sorted(self._breakers):
            breaker = self._breakers[shard]
            snap[f"router.breaker.{shard}.state"] = breaker.state
            snap[f"router.breaker.{shard}.opens"] = breaker.opens
            snap[f"router.breaker.{shard}.skips"] = breaker.skips
        return snap
