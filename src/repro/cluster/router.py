"""Client-side routing across a sharded ResultStore cluster.

A :class:`ClusterRouter` stands where a :class:`~repro.net.rpc.RpcClient`
would: a :class:`~repro.core.runtime.DedupRuntime` or a
:class:`~repro.engine.PipelineEngine` links against either unchanged.
Every request is routed by its tag's position on the
:class:`~repro.cluster.ring.ShardRing`.

One request path
----------------
Routing exists once, as *submit a group, settle a group*:

* A **GET group** shares a primary shard and travels to it as one
  record.  Settling takes the primary's answers and finishes each item
  on its own: a hit is returned; a live owner's *miss* falls through to
  the tag's remaining owners in ring order; an owner that did not answer
  (dead, garbled, or refused by its circuit breaker) is passed over.
  The first hit wins, counts one **failover** when any owner before it
  failed, and queues a one-way **read-repair** PUT to every live owner
  that missed, so a shard that lost or never received an entry converges
  back.  When no owner answered at all the item is *unavailable*
  (``found=False``, reason ``no_live_owner``), never a plain miss.  The
  repaired ciphertext is still the store-side ``(r, [k], [res])``
  triple: the router never sees plaintext, and a tampered replica is
  caught by the runtime's Fig. 3 MAC/tag verification exactly as a
  tampered single store would be.
* A **PUT group** is fanned out as one record per owner shard (every
  item goes to its primary and its ``replication_factor - 1`` distinct
  successors).  Settling merges the shards' acks by one rule: an item's
  primary is authoritative, another owner's ack stands in while the
  primary is silent, and every further ack is absorbed into the replica
  counters.  An item nobody answered is ``accepted=False`` with reason
  ``no_live_owner``.

What differs between the public entry points is only how a shard send is
made and when the group is settled:

* ``call`` is a group of one, sent with a blocking shard call and
  settled on the spot; ``call_batch`` does the same per shard group
  (GETs, as :meth:`ClusterRouter.plan_gets` partitions them) or for the
  whole batch at once (PUTs), and rejoins the answers in item order.
* ``submit``/``wait`` and ``submit_gets``/``wait_gets``,
  ``submit_puts``/``wait_puts`` send through the shard clients'
  pipelined slots, so several groups are in flight together, and settle
  when the caller waits.
* ``send_oneway``/``send_oneway_batch`` send fire-and-forget; the
  group is settled by :meth:`ClusterRouter.drain_responses` from
  whatever acks have arrived, so a fully-dead owner set shows up as
  *unacknowledged*, never as a silent success.

Every shard exchange goes through one guarded helper, so a shard's
circuit breaker is asked once per send and learns from every reply.
The router speaks to N per-shard clients, each with its own request-id
space, so it hands out router-level slot ids and maps shard-local ids
back onto them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        """The counters under canonical ``router.<metric>`` keys."""
        return namespaced("router", {
            "gets_routed": self.gets_routed,
            "puts_routed": self.puts_routed,
            "get_timeouts": self.get_timeouts,
            "put_timeouts": self.put_timeouts,
            "failovers": self.failovers,
            "read_repairs": self.read_repairs,
            "unavailable": self.unavailable,
            "replica_puts": self.replica_puts,
            "replica_put_acks": self.replica_put_acks,
            "replica_put_rejects": self.replica_put_rejects,
            "repair_acks": self.repair_acks,
            "repair_rejects": self.repair_rejects,
            "circuit_skips": self.circuit_skips,
        }, renames=self._RENAMES)


@dataclass
class _GetGroup:
    """A submitted GET group: requests bound for one primary shard."""

    requests: list
    mode: str
    # True for a slot opened by submit() and settled by wait().
    single: bool = False
    # The primary the group was offered to; None when it has no owner.
    shard: str | None = None
    # What the send returned: the shard's responses (blocking send), its
    # slot id (pipelined send), or None when the shard did not take it
    # (refused or failed: settling walks the remaining owners).
    sent: object = None


@dataclass
class _PutGroup:
    """A submitted PUT group: one record per owner shard of its items."""

    requests: list
    mode: str
    single: bool = False
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


class ClusterRouter:
    """Routes one application's store traffic across the shard ring."""

    def __init__(
        self,
        ring: ShardRing,
        clients: dict[str, RpcClient],
        replication_factor: int = 2,
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
        # Fire-and-forget sends whose acks are router-internal (read
        # repair): absorbed on drain, never surfaced to the runtime.
        self._absorb_keys: set[tuple[str, int]] = set()

    # -- topology ------------------------------------------------------------
    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._clients))

    @property
    def in_transition(self) -> bool:
        """True while the ring holds a dual-ownership migration window —
        a single join/drain or a planned multi-shard window
        (:class:`~repro.cluster.ring.TopologyPlan`); either way there is
        exactly one window at a time.

        The pipelined engine's adaptive depth controller reads this to
        cap its submit window and yield slots to the streaming migrator
        while the window is in flight."""
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

    def _owners(self, tag: bytes) -> list[str]:
        """The tag's owner shards this router can actually reach."""
        owners = self.ring.owners(tag, self.replication_factor)
        return [s for s in owners if s in self._clients]

    def _read_owners(self, tag: bytes) -> list[str]:
        """Reachable shards to consult for a GET.  During a topology
        transition (dual-ownership window) this is the old owners first
        with the pending owners as failover, so a tag stays readable
        whether or not its range has been handed off yet.  Under a
        planned multi-shard window the union may span several changed
        shards (two joiners plus a leaver, say) — the ring computes it
        per range, the router just filters to connected clients."""
        owners = self.ring.read_owners(tag, self.replication_factor)
        return [s for s in owners if s in self._clients]

    def _write_owners(self, tag: bytes) -> list[str]:
        """Reachable shards a PUT must land on.  During a transition
        writes go to the *pending* owners — the post-plan topology, even
        when several membership/weight changes land in the same window —
        so no update accepted inside the window is lost when its range
        commits."""
        owners = self.ring.write_owners(tag, self.replication_factor)
        return [s for s in owners if s in self._clients]

    # -- the one guarded shard exchange ----------------------------------------
    def _guarded(self, shard: str, exchange, answers: bool, gate: bool = True,
                 span: str | None = None, **attrs):
        """Run ``exchange(client)`` against one shard behind its breaker.

        ``gate`` asks the breaker first: a refusal costs one skip and no
        wire traffic.  ``answers`` says the exchange returns the shard's
        reply, which is what closes a breaker again.  Returns what the
        exchange returned, or ``None`` when the shard did not serve it
        (refused or failed): either way the caller moves on to the
        next owner and never offers this send to the breaker again.
        """
        breaker = self._breaker(shard)
        tracer = self.tracer if span else NULL_TRACER
        with tracer.span(span, clock=self.clock, shard=shard, **attrs) as open_span:
            if gate and breaker is not None and not breaker.allow():
                self.stats.circuit_skips += 1
                open_span.mark("circuit_open")
                return None
            try:
                result = exchange(self._clients[shard])
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
        send mode (a lone item travels as itself, not as a batch of one).
        One-way sends are untraced: nothing waits on them."""
        def exchange(client):
            if mode is _PIPELINED:
                return client.submit_gets(sub) if kind == "get" else client.submit_puts(sub)
            if len(sub) > 1:
                return client.call_batch(sub) if mode is _SYNC else client.send_oneway_batch(sub)
            return [client.call(sub[0])] if mode is _SYNC else client.send_oneway(sub[0])

        return self._guarded(
            shard, exchange, answers=mode is _SYNC,
            span=None if mode is _ONEWAY else f"router.shard_{kind}", items=len(sub),
        )

    def _collect(self, shard: str, kind: str, sent, n_items: int, mode: str):
        """A sent share's per-item replies: already there after a
        blocking send, waited for (behind the breaker's bookkeeping, but
        not its gate: the request is already out) after a pipelined one."""
        if mode is _SYNC:
            return sent

        def exchange(client):
            if kind == "get":
                return client.wait_gets(sent, n_items)
            return client.wait_puts(sent, n_items)

        return self._guarded(
            shard, exchange, answers=True, gate=False,
            span=f"router.shard_{kind}", items=n_items,
        )

    # -- GET: one group core -----------------------------------------------------
    def _submit_get_group(self, requests: list, mode: str, single: bool = False) -> _GetGroup:
        """Send a GET group to its primary (the first request's: callers
        group by :meth:`plan_gets`)."""
        group = _GetGroup(requests=requests, mode=mode, single=single)
        owners = self._read_owners(requests[0].tag) if requests else []
        if owners:
            group.shard = owners[0]
            group.sent = self._send(group.shard, "get", requests, mode)
        return group

    def _settle_get_group(self, group: _GetGroup) -> list[Message]:
        """Per-item answers of a submitted GET group, in request order."""
        requests, shard = group.requests, group.shard
        self.stats.gets_routed += len(requests)
        replies = None
        if group.sent is not None:
            replies = self._collect(shard, "get", group.sent, len(requests), group.mode)
        if shard is not None and replies is None:
            self.stats.get_timeouts += 1
        elif replies is not None and len(replies) != len(requests):
            # Surface it rather than shift the caller's correlation.
            raise ProtocolError(
                f"shard {shard!r} answered {len(replies)} of {len(requests)} GETs"
            )
        return [
            self._finish_get(request, shard, replies[i] if replies else None)
            for i, request in enumerate(requests)
        ]

    def _finish_get(
        self, request: GetRequest, asked: str | None, reply: Message | None
    ) -> GetResponse:
        """Walk one GET over its owners, starting from what the group's
        primary ``asked`` replied (``None``: it did not answer)."""
        missed_live: list[str] = []
        failed = 0
        for shard, reply in self._owner_replies(request, asked, reply):
            if reply is None:
                failed += 1
                continue
            if not isinstance(reply, GetResponse):
                raise ProtocolError(
                    f"shard {shard!r} answered GET with {type(reply).__name__}"
                )
            if not reply.found:
                missed_live.append(shard)
                continue
            if failed:
                self.stats.failovers += 1
                self.tracer.event("router.failover", clock=self.clock, timeouts=failed)
            for missed in missed_live:
                self._queue_read_repair(missed, request, reply)
            return reply
        if missed_live:
            return GetResponse(found=False)
        # No owner answered: the item is unavailable, not absent.  Fail
        # safe: the caller recomputes, exactly like a miss.
        self.stats.unavailable += 1
        return GetResponse(found=False, reason=NO_LIVE_OWNER)

    def _owner_replies(self, request: GetRequest, asked: str | None, reply):
        """``(owner, reply)`` in the order a GET consults its owners: the
        group's primary with what it already replied, then each remaining
        owner, called (blocking) only when the walk gets that far."""
        if asked is not None:
            yield asked, reply
        for shard in self._read_owners(request.tag):
            if shard != asked:
                reply = self._guarded(
                    shard, lambda client: client.call(request), answers=True,
                    span="router.shard_get",
                )
                if reply is None:
                    self.stats.get_timeouts += 1
                yield shard, reply

    def _queue_read_repair(
        self, shard: str, request: GetRequest, hit: GetResponse
    ) -> None:
        """Re-PUT a hit to a live owner that answered miss (one-way)."""
        repair = PutRequest(
            tag=request.tag,
            challenge=hit.challenge,
            wrapped_key=hit.wrapped_key,
            sealed_result=hit.sealed_result,
            app_id=request.app_id,
        )
        local_id = self._guarded(
            shard, lambda client: client.send_oneway(repair), answers=False,
            span="router.read_repair",
        )
        if local_id is not None:
            self._absorb_keys.add((shard, local_id))
            self.stats.read_repairs += 1

    # -- PUT: one fan-out, one verdict merger --------------------------------------
    def _submit_put_group(self, requests: list, mode: str, single: bool = False) -> _PutGroup:
        """Fan a PUT group out: one record to every owner shard of its
        items, carrying the items that shard owns."""
        self.stats.puts_routed += len(requests)
        owners_per_item = [self._write_owners(r.tag) for r in requests]
        group = _PutGroup(
            requests=requests, mode=mode, single=single,
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

    def _settle_put_group(self, group: _PutGroup) -> list[Message | None]:
        """Per-item verdicts of a blocking or pipelined PUT group
        (``None``: no owner answered for that item)."""
        for shard, sent, positions in group.subs:
            acks = self._collect(shard, "put", sent, len(positions), group.mode)
            if acks is None:
                self.stats.put_timeouts += 1
            else:
                self._merge_put_acks(group, shard, positions, acks)
        return group.verdicts

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

    # -- compositions: submitting ------------------------------------------------
    def _submit_group(self, requests: list, mode: str, single: bool = False):
        if requests and all(isinstance(r, GetRequest) for r in requests):
            return self._submit_get_group(requests, mode, single)
        if requests and all(isinstance(r, PutRequest) for r in requests):
            return self._submit_put_group(requests, mode, single)
        raise ProtocolError(
            "cluster router routes a uniform list of GETs or PUTs, not "
            + ", ".join(sorted({type(r).__name__ for r in requests}))
        )

    def _settle_group(self, group) -> list[Message]:
        if isinstance(group, _GetGroup):
            return self._settle_get_group(group)
        return [
            verdict if verdict is not None
            else PutResponse(accepted=False, reason=NO_LIVE_OWNER)
            for verdict in self._settle_put_group(group)
        ]

    def _settle_single(self, group) -> Message:
        """A group of one settled as a call: a PUT nobody answered is an
        error here, not an in-band verdict."""
        (reply,) = self._settle_group(group)
        if isinstance(group, _PutGroup) and group.verdicts[0] is None:
            raise NoLiveOwnerError(
                f"{NO_LIVE_OWNER} for tag {group.requests[0].tag[:8].hex()}"
            )
        return reply

    def _park(self, group) -> int:
        """Keep a pipelined group for its waiter; returns its slot id."""
        router_id = self._fresh_router_id()
        self._pipeline[router_id] = group
        return router_id

    def _claim(self, router_id: int, kinds, single: bool, n_items: int | None = None):
        """Take a parked group out for settling.  A slot of another
        shape, or a wrong item count, is refused and left in place."""
        group = self._pipeline.get(router_id)
        if not isinstance(group, kinds) or group.single != single:
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

    def _fresh_router_id(self) -> int:
        router_id = self._next_router_id
        self._next_router_id += 1
        return router_id

    def _plan(self, requests: list, owners_of) -> list[list[int]]:
        groups: dict[str, list[int]] = {}
        orphans: list[int] = []
        for i, request in enumerate(requests):
            owners = owners_of(request.tag)
            if owners:
                groups.setdefault(owners[0], []).append(i)
            else:
                orphans.append(i)
        out = [indices for _, indices in sorted(groups.items())]
        out.extend([i] for i in orphans)
        return out

    # -- synchronous calls -------------------------------------------------------
    def call(self, request: Message) -> Message:
        """Route one request and block on its answer: a group of one,
        sent with a blocking shard call and settled on the spot."""
        name = "router.get" if isinstance(request, GetRequest) else "router.put"
        with self.tracer.span(name, clock=self.clock) as span:
            reply = self._settle_single(self._submit_group([request], _SYNC, single=True))
            if isinstance(reply, GetResponse):
                if reply.reason == NO_LIVE_OWNER:
                    span.mark("unavailable")
                else:
                    span.set("outcome", "hit" if reply.found else "miss")
            return reply

    def call_batch(self, requests: list[Message]) -> list[Message]:
        """Route a uniform batch and block on every answer, rejoined in
        item order.  GETs go one blocking group per primary shard, so a
        shard that fails its sub-batch does not poison the other shards'
        items; PUTs fan out as one group, one record per owner shard."""
        requests = list(requests)
        if not requests:
            return []
        if not all(isinstance(r, GetRequest) for r in requests):
            with self.tracer.span("router.batch_put", clock=self.clock, items=len(requests)):
                return self._settle_group(self._submit_group(requests, _SYNC))
        results: list = [None] * len(requests)
        with self.tracer.span("router.batch_get", clock=self.clock, items=len(requests)):
            for positions in self._plan(requests, self._read_owners):
                group = self._submit_get_group([requests[p] for p in positions], _SYNC)
                for p, reply in zip(positions, self._settle_get_group(group)):
                    results[p] = reply
        return results

    # -- pipelined calls -------------------------------------------------------
    def submit(self, request: Message) -> int:
        """Pipelined routing: put the request on the wire (GET to its
        primary, PUT to every owner) and return a router slot id for
        :meth:`wait`.  Distinct tags land on distinct shards, so N
        submitted requests are served by the shards concurrently instead
        of one blocking round trip at a time.
        """
        return self._park(self._submit_group([request], _PIPELINED, single=True))

    def wait(self, router_id: int) -> Message:
        """Settle one pipelined call; semantics match :meth:`call`.

        A GET whose primary failed while in flight fails over through
        the surviving replicas (read-repairing on a replica hit) and
        only reports ``no live owner`` when every owner is gone; a PUT's
        first live owner in ring order stays authoritative, the others'
        verdicts are absorbed as replica acks.
        """
        return self._settle_single(
            self._claim(router_id, (_GetGroup, _PutGroup), single=True)
        )

    # -- grouped pipelining (one record per shard sub-batch) -------------------
    def plan_gets(self, requests: list[GetRequest]) -> list[list[int]]:
        """Partition GET indices by primary owner shard.

        Each group can ship as one channel record to one shard, so a
        round of N GETs across S shards costs S records — and the S
        shards serve their sub-batches concurrently.  Items with no live
        owner form their own group (answered without touching the wire).
        """
        return self._plan(requests, self._read_owners)

    def submit_gets(self, requests: list[GetRequest]) -> int:
        """Submit one :meth:`plan_gets` group (a shared-primary GET
        sub-batch) as a single record; returns a router slot id for
        :meth:`wait_gets`."""
        return self._park(self._submit_get_group(list(requests), _PIPELINED))

    def wait_gets(self, router_id: int, n_items: int | None = None) -> list[Message]:
        """Settle one GET group; per-item semantics match ``call_batch``.

        A group whose shard failed (at submit or in flight) falls back to
        per-item routing through the surviving replicas; a live primary's
        per-item miss consults the replicas and read-repairs the primary
        on a replica hit.  Items with no live owner anywhere come back as
        ``found=False`` / ``no live owner``.
        """
        return self._settle_get_group(
            self._claim(router_id, _GetGroup, single=False, n_items=n_items)
        )

    def plan_puts(self, requests: list[PutRequest]) -> list[list[int]]:
        """Partition PUT indices by primary owner shard.

        Like :meth:`plan_gets`, each group's copies ship as one channel
        record per owner shard instead of one record per item, so a
        round of N replicated PUTs costs O(shards) records.  Items with
        no live owner form their own group (answered without touching
        the wire)."""
        return self._plan(requests, self._write_owners)

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
        return self._settle_group(
            self._claim(router_id, _PutGroup, single=False, n_items=n_items)
        )

    # -- one-way sends: settled by drain_responses -------------------------------
    def send_oneway(self, request: Message) -> int:
        """Fire-and-forget one PUT to every owner; returns the router
        slot id its ack will carry out of :meth:`drain_responses`."""
        if not isinstance(request, PutRequest):
            raise ProtocolError("one-way sends carry PUT requests")
        group = self._submit_put_group([request], _ONEWAY, single=True)
        group.router_id = self._fresh_router_id()
        return group.router_id

    def send_oneway_batch(self, requests: list[PutRequest]) -> int:
        """Fire-and-forget a PUT batch, one record per owner shard; its
        merged :class:`BatchPutResponse` comes out of
        :meth:`drain_responses` under the returned slot id."""
        group = self._submit_put_group(list(requests), _ONEWAY)
        group.router_id = self._fresh_router_id()
        return group.router_id

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
                if key in self._absorb_keys:
                    self._absorb_keys.discard(key)
                    if isinstance(response, PutResponse) and response.accepted:
                        self.stats.repair_acks += 1
                    else:
                        self.stats.repair_rejects += 1
                    continue
                # Unknown id: a stale response from a revived shard, or a
                # reply to a send the router already accounted.  Dropped.
                group, positions = self._oneway.pop(key, (None, ()))
                if isinstance(response, BatchPutResponse):
                    acks = list(response.items)
                else:
                    acks = [response]
                if group is None or len(acks) != len(positions) or not all(
                    isinstance(ack, (PutResponse, ErrorMessage)) for ack in acks
                ):
                    continue  # malformed: those items stay unacknowledged
                self._merge_put_acks(group, shard, positions, acks)
                touched[group.router_id] = group
        out: list[Message] = []
        for router_id, group in touched.items():
            if group.emitted or None in group.verdicts:
                continue
            group.emitted = True
            if group.single:
                out.append(with_request_id(group.verdicts[0], router_id))
                continue
            # A shard's error verdict for its item: rejected is the closest
            # per-item shape a merged batch response can carry.  The reason
            # stays machine-readable: errors.StoreError's code plus the
            # numeric wire code.
            out.append(BatchPutResponse(
                items=tuple(
                    PutResponse(accepted=False, reason=f"store_error:{v.code}")
                    if isinstance(v, ErrorMessage) else v
                    for v in group.verdicts
                ),
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
        snap["router.retries"] = sum(
            c.retries for c in self._clients.values()
        )
        snap["router.backoff_seconds_total"] = sum(
            c.backoff_seconds_total for c in self._clients.values()
        )
        snap["router.records_rejected"] = sum(
            c.records_rejected for c in self._clients.values()
        )
        snap["router.duplicate_responses_dropped"] = sum(
            c.duplicates_dropped for c in self._clients.values()
        )
        snap["router.pipelined_submits"] = sum(
            c.submits for c in self._clients.values()
        )
        snap["router.pipeline_max_inflight"] = sum(
            c.max_inflight for c in self._clients.values()
        )
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
