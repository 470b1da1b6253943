"""The secure deduplication runtime (paper §IV-B, Algorithms 1 & 2).

One :class:`DedupRuntime` instance is linked into one application
enclave.  A deduplicated call runs as follows, mirroring the paper's
control flow exactly:

1. **ECALL** into the application enclave.
2. Verify the app owns the marked function (trusted-library scan) and
   derive the function identity; canonically serialize the input.
3. ``t ← Hash(func, m)`` and **OCALL** a synchronous ``GET_REQUEST``.
4. On a positive response, run the Fig. 3 verification protocol; a
   verified result is decrypted, deserialized, and returned — the
   *subsequent computation* path (Algorithm 2).
5. Otherwise execute the function inside the enclave, protect the result
   with the configured scheme, and issue a ``PUT_REQUEST`` — the
   *initial computation* path (Algorithm 1).  The PUT is asynchronous by
   default ("the remaining PUT operations can be processed in a
   separated thread", §V-B); ``flush_puts`` drains it off the critical
   path.

That is one staged pipeline (:meth:`DedupRuntime._run`) over a group of
inputs; an entry point only chooses how the group crosses the enclave
boundary (:class:`_Crossing`).  :meth:`DedupRuntime.execute` takes one
input across as plain GET/PUT messages.  Two optimizations amortize the
fixed per-call costs without touching the per-item semantics above:

- :meth:`DedupRuntime.execute_many` runs a whole batch under **one**
  ECALL, ships all duplicate checks as one batched OCALL/channel record,
  and queues all PUTs together.  Each item still follows Algorithm 1 or
  2 individually and gets its own :class:`CallRecord`.
- An optional in-enclave **L1 cache** of verified results
  (:class:`L1ResultCache`) short-circuits the store round-trip for tags
  this enclave has already verified or computed, at the price of EPC
  pressure charged through the paging model.
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..cluster.router import ClusterRouter

from .adaptive import AdaptiveDedupPolicy
from .cache import L1ResultCache
from .description import FunctionDescription, TrustedLibraryRegistry
from .scheme import CrossAppScheme, ProtectedResult, ResultScheme
from .serialization import AnyParser, Parser, ParserRegistry, default_registry
from .stats import CallRecord, RuntimeStats
from .tag import derive_tag
from .verification import verify_and_recover
from ..engine import EngineBatch
from ..errors import (
    ChannelError,
    DedupError,
    NoLiveOwnerError,
    ProtocolError,
    TransportError,
)
from ..net.messages import (
    BatchPutResponse,
    GetRequest,
    GetResponse,
    Message,
    PutRequest,
    PutResponse,
)
from ..net.rpc import RpcClient
from ..obs.tracer import NULL_TRACER
from ..sgx.enclave import Enclave

# Failures meaning "the store did not serve this request": the send or
# reply was lost/garbled, retries ran out, or no owner shard was live.
_STORE_FAILURES = (TransportError, ChannelError, ProtocolError)


@dataclass(frozen=True)
class DedupResult:
    """Per-item outcome of a deduplicated call.

    ``execute``/``execute_many`` return plain values; the ``*_result``
    variants return this wrapper so callers can see *how* each value was
    obtained without digging through stats:

    * ``source`` — ``"l1"`` (served from the in-enclave cache),
      ``"store"`` (verified store hit, Algorithm 2), ``"computed"``
      (fresh execution, Algorithm 1) or ``"coalesced"`` (single-flight:
      an identical in-flight tag shared its leader's round trip and
      verification, and this follower observed the leader's result);
    * ``span_id``/``trace_id`` — the call's ``runtime.item`` span when a
      tracer is attached (``None`` under the default :data:`NULL_TRACER`).
    """

    value: Any
    hit: bool
    l1_hit: bool
    tag: bytes
    source: str
    span_id: int | None = None
    trace_id: int | None = None
    # True when the store was unreachable and the value was computed
    # locally under graceful degradation (source is ``"computed"``).
    degraded: bool = False


@dataclass
class RuntimeConfig:
    """Per-application runtime policy."""

    app_id: str = "app"
    async_put: bool = True
    scheme: ResultScheme = field(default_factory=CrossAppScheme)
    # When False, a deduplicated call skips the GET/PUT entirely and just
    # executes — the "without SPEED" baseline of Fig. 5.
    dedup_enabled: bool = True
    # The paper's future-work extension (§VII): learn per function
    # whether deduplication pays off and suppress it when it does not.
    adaptive: AdaptiveDedupPolicy | None = None
    # In-enclave L1 tag→result cache.  0 disables it (the default: the
    # cache trades EPC pressure for round-trips, which only pays off for
    # workloads with repeated tags).
    l1_cache_entries: int = 0
    l1_cache_bytes: int | None = None
    # Graceful degradation: when the store is unreachable (transport
    # failure, exhausted retries, no live owner shard), compute locally
    # instead of surfacing the error — correctness is preserved because
    # the miss path (Algorithm 1) recomputes anyway; only deduplication
    # is lost.  Off by default: fail-fast keeps store outages visible.
    degrade_on_store_failure: bool = False
    # Async PUT flusher bounds.  ``put_queue_entries`` caps the pending
    # queue: when an enqueue would leave it at the cap, the oldest batch
    # is drained first (back-pressure — the caller absorbs the send cost
    # instead of the queue growing without bound).  0 keeps the legacy
    # unbounded queue drained only by explicit ``flush_puts`` calls.
    put_queue_entries: int = 0
    # PUTs shipped per background drain (one channel record each);
    # 0 drains the whole queue in a single batch.
    put_flush_batch: int = 0


@dataclass
class _BatchItem:
    """Per-input bookkeeping while a group moves through the pipeline."""

    index: int
    input_value: Any
    input_bytes: bytes = b""
    tag: bytes = b""
    attempt_dedup: bool = False
    # How the value was obtained (:attr:`DedupResult.source`); anything
    # but "computed" is a hit.
    source: str = "computed"
    degraded: bool = False
    result_value: Any = None
    result_len: int = 0
    compute_sim: float = 0.0
    # Costs attributable to this item alone; group-shared costs (ECALL,
    # OCALLs, channel records) are split evenly afterwards.
    direct_wall: float = 0.0
    direct_sim: float = 0.0
    # The item's ``runtime.item`` span: closed after stage 1, told the
    # item's ``source`` once the later stages have settled it.
    span: Any = None

    @property
    def hit(self) -> bool:
        return self.source != "computed"

    def follow(self, leader: "_BatchItem") -> None:
        """Single-flight: take the result ``leader`` got for the same tag."""
        self.source = "coalesced"
        self.result_len = leader.result_len
        self.result_value = leader.result_value


class _SerialRegion(AbstractContextManager):
    """No-op stand-in for :meth:`PipelineEngine.parallel_region` used when
    no engine carries the group: tasks run (and are accounted) serially."""

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def task(self) -> "_SerialRegion":
        return self


class _Crossing(NamedTuple):
    """How one entry point's group crosses the enclave boundary — the
    only thing an entry point tells the pipeline (:meth:`DedupRuntime._run`).

    Both sends answer with an :class:`~repro.engine.EngineBatch`: a
    response or an exception per position (plus, for GETs the engine
    coalesced, who follows whom).  ``lanes`` opens the region the group's
    per-item enclave work is accounted to.
    """

    root_span: str
    ecall: str
    get_ocall: str
    put_ocall: str
    send_gets: Callable[[list[GetRequest]], EngineBatch]
    send_puts: Callable[[list[PutRequest]], EngineBatch]
    lanes: Callable[[], Any]


# What each entry point crosses under: root span, ECALL, GET OCALL, PUT OCALL.
_LONE = ("runtime.execute", "dedup_execute", "get_request", "put_request")
_BATCH = ("runtime.execute_batch", "dedup_execute_batch", "batch_get_request", "batch_put_request")


class DedupRuntime:
    """The trusted deduplication library linked against one app enclave.

    ``client`` is anything that speaks the RpcClient surface — a plain
    :class:`~repro.net.rpc.RpcClient` bound to one ResultStore, or a
    :class:`~repro.cluster.router.ClusterRouter` fanning the same calls
    out across a shard ring.  The runtime's per-item semantics
    (Algorithms 1 & 2, Fig. 3 verification) are identical either way;
    only where the bytes land differs.
    """

    def __init__(
        self,
        enclave: Enclave,
        client: "RpcClient | ClusterRouter",
        libraries: TrustedLibraryRegistry,
        parsers: ParserRegistry | None = None,
        config: RuntimeConfig | None = None,
        tracer=NULL_TRACER,
    ):
        self.enclave = enclave
        self.client = client
        self.libraries = libraries
        self.parsers = parsers or default_registry()
        self.config = config or RuntimeConfig()
        self.clock = enclave.platform.clock
        self.stats = RuntimeStats()
        self.tracer = NULL_TRACER if tracer is None else tracer
        if self.tracer.enabled:
            # The app enclave's transitions belong to this call's trace.
            self.enclave.tracer = self.tracer
        self._pending_puts: list[PutRequest] = []
        # Optional pipelined execution engine (see repro.engine); when
        # attached, stage-2 GETs and stage-4 PUTs of execute_many go
        # through its pipelined rounds of shard groups instead of the
        # blocking call_batch path.
        self.engine = None
        self._closed = False
        # Correlation id -> the tags of the PUT items awaiting a response,
        # in order, so acks can be attributed to tags (the simulation
        # harness's durability invariant: an acknowledged tag must stay
        # servable).
        self._inflight_puts: dict[int, tuple[bytes, ...]] = {}
        self.acked_put_tags: set[bytes] = set()
        self.l1_cache: L1ResultCache | None = None
        if self.config.l1_cache_entries > 0:
            self.l1_cache = L1ResultCache(
                enclave,
                max_entries=self.config.l1_cache_entries,
                max_bytes=self.config.l1_cache_bytes,
            )

    # -- pipelined engine / lifecycle -----------------------------------------
    def attach_engine(self, engine) -> None:
        """Attach a :class:`~repro.engine.PipelineEngine`.

        Once attached, :meth:`execute_many` fans its batched GETs and
        synchronous PUTs out through the engine's pipelined rounds of
        shard groups (with single-flight tag coalescing),
        and asynchronous PUT drains are accounted as the engine's
        background lane.  Per-item results, clock charges, and counters
        stay identical to the serial path; only the schedule — and hence
        the engine's makespan accounting — changes.  A lone
        :meth:`execute` always blocks; it never enters the engine.
        """
        self.engine = engine

    def close(self) -> int:
        """Flush every queued PUT, settle engine accounting, and refuse
        further queued PUTs.  Idempotent.  Returns the number of PUTs
        this call flushed.

        After ``close()``, computations that would queue an async PUT
        raise :class:`DedupError` — a closed runtime must not silently
        accumulate work that nothing will ever flush.
        """
        flushed = self.flush_puts()
        if self.engine is not None:
            self.engine.settle()
        self._closed = True
        return flushed

    @property
    def closed(self) -> bool:
        return self._closed

    # -- public entry points --------------------------------------------------
    def execute(
        self,
        description: FunctionDescription,
        input_value: Any,
        input_parser: Parser | None = None,
        result_parser: Parser | None = None,
        unpack_args: bool = False,
        native_factor: float = 1.0,
    ) -> Any:
        """Run one deduplicated computation and return its result."""
        return self.execute_result(
            description, input_value, input_parser, result_parser,
            unpack_args, native_factor,
        ).value

    def execute_result(
        self,
        description: FunctionDescription,
        input_value: Any,
        input_parser: Parser | None = None,
        result_parser: Parser | None = None,
        unpack_args: bool = False,
        native_factor: float = 1.0,
    ) -> DedupResult:
        """Like :meth:`execute`, but returns the full per-call
        :class:`DedupResult` (value, hit/source, tag, span ids)."""
        (result,) = self._run(
            self._lone_crossing(), description, [input_value],
            input_parser, result_parser, unpack_args, native_factor,
        )
        return result

    def execute_many(
        self,
        description: FunctionDescription,
        inputs: Sequence[Any],
        input_parser: Parser | None = None,
        result_parser: Parser | None = None,
        unpack_args: bool = False,
        native_factor: float = 1.0,
    ) -> list[Any]:
        """Run a batch of deduplicated computations in one enclave entry.

        Semantics per item are identical to :meth:`execute` — every input
        follows Algorithm 1 or Algorithm 2 on its own and yields its own
        :class:`CallRecord` — but the fixed costs are paid once per
        batch: one ECALL, one batched GET OCALL under one channel record,
        and (in synchronous-PUT mode) one batched PUT OCALL.  Costs that
        cannot be attributed to a single item are split evenly across the
        batch's records, so per-batch sums match the totals.
        """
        return [
            r.value
            for r in self.execute_many_results(
                description, inputs, input_parser, result_parser,
                unpack_args, native_factor,
            )
        ]

    def execute_many_results(
        self,
        description: FunctionDescription,
        inputs: Sequence[Any],
        input_parser: Parser | None = None,
        result_parser: Parser | None = None,
        unpack_args: bool = False,
        native_factor: float = 1.0,
    ) -> list[DedupResult]:
        """Like :meth:`execute_many`, but returns per-item
        :class:`DedupResult` wrappers instead of bare values."""
        inputs = list(inputs)
        if not inputs:
            return []
        results = self._run(
            self._batch_crossing(), description, inputs,
            input_parser, result_parser, unpack_args, native_factor,
        )
        self.stats.batches += 1
        return results

    # -- the two ways across the enclave boundary ------------------------------
    def _lone_crossing(self) -> _Crossing:
        """A lone call travels as plain GET/PUT messages and always
        blocks: it never enters the engine."""
        call = self.client.call

        def send(requests: list) -> EngineBatch:
            return EngineBatch([call(request) for request in requests])

        return _Crossing(*_LONE, send, send, _SerialRegion)

    def _batch_crossing(self) -> _Crossing:
        """A batch travels as one BATCH_GET/BATCH_PUT per shard group:
        through the engine's pipelined rounds (and worker lanes) when one
        is attached, as blocking ``call_batch`` exchanges otherwise."""
        engine, call_batch = self.engine, self.client.call_batch
        if engine is not None:
            return _Crossing(*_BATCH, engine.run_gets, engine.run_puts, engine.parallel_region)

        def send(requests: list) -> EngineBatch:
            return EngineBatch(list(call_batch(requests)))

        return _Crossing(*_BATCH, send, send, _SerialRegion)

    # -- the pipeline (Algorithms 1 & 2 over a group) ----------------------------
    def _run(
        self,
        crossing: _Crossing,
        description: FunctionDescription,
        inputs: list,
        input_parser: Parser | None,
        result_parser: Parser | None,
        unpack_args: bool,
        native_factor: float,
    ) -> list[DedupResult]:
        """Take ``inputs`` through the four stages under one ECALL: tag +
        L1, duplicate check, compute, PUT.  Every input follows Algorithm
        1 or 2 on its own and gets its own record and result; what the
        group shares is the boundary ``crossing``."""
        input_parser = input_parser or AnyParser(self.parsers)
        result_parser = result_parser or AnyParser(self.parsers)
        n = len(inputs)
        items = [_BatchItem(index, value) for index, value in enumerate(inputs)]
        adaptive = self.config.adaptive
        label = str(description)
        wall_start = time.perf_counter()
        sim_start = self.clock.snapshot()

        with self.tracer.span(
            crossing.root_span, clock=self.clock, func=label, items=n,
        ), self.enclave.ecall(crossing.ecall):
            trace_id = self.tracer.current_trace_id
            func = self.libraries.lookup(description)
            func_identity = self.libraries.function_identity(description)

            # Stage 1: derive every tag; serve what the L1 already holds.
            # Per-item derivation is independent enclave work, so with
            # the engine attached it rides the worker lanes exactly like
            # stage-2 verification.
            with crossing.lanes() as region:
                for item in items:
                    with self.tracer.span(
                        "runtime.item", clock=self.clock, index=item.index
                    ) as item.span, self._item_meter(item), region.task():
                        with self.tracer.span("runtime.tag", clock=self.clock):
                            item.input_bytes = input_parser.encode(item.input_value)
                            item.tag = derive_tag(func_identity, item.input_bytes, self.clock)
                        item.attempt_dedup = self.config.dedup_enabled and (
                            adaptive is None or adaptive.should_attempt_dedup(func_identity)
                        )
                        if item.attempt_dedup and self.l1_cache is not None:
                            self._l1_lookup(item, result_parser)
                        item.span.set("l1_hit", item.source == "l1")

            # Stage 2: one duplicate check for everything the L1 could
            # not answer (Algorithm 2, lines 2-3).
            lookups = [i for i in items if i.attempt_dedup and not i.hit]
            if lookups:
                batch = self._exchange(
                    crossing.get_ocall,
                    sum(len(item.tag) + 64 for item in lookups),
                    crossing.send_gets,
                    [GetRequest(tag=item.tag, app_id=self.config.app_id) for item in lookups],
                )
                self._absorb_gets(lookups, batch, crossing.lanes, func_identity, result_parser)

            # Stage 3: compute the misses in input order (Algorithm 1).
            # With the engine's single-flight mode on, later misses
            # whose tag an earlier miss already computed this batch
            # join that leader in-enclave: one compute, one PUT.
            sync_puts: list[PutRequest] = []
            coalesce = self.engine is not None and self.engine.config.coalesce
            computed_by_tag: dict[bytes, _BatchItem] = {}
            # Tags this group has put in the L1 since stage 1 probed it:
            # only these can have turned a miss into a hit, so only these
            # are probed again (the sequential-with-cache order, with
            # every missing lookup counted once).
            l1_fresh = {i.tag for i in items if i.source == "store"}
            for item in items:
                if item.hit:
                    continue
                leader = computed_by_tag.get(item.tag)
                if leader is not None and item.attempt_dedup:
                    item.follow(leader)
                    continue
                with self._item_meter(item):
                    if self.l1_cache is not None and item.attempt_dedup and item.tag in l1_fresh:
                        self._l1_lookup(item, result_parser)
                    put = None if item.hit else self._compute_item(
                        item, func, func_identity, result_parser, unpack_args, native_factor
                    )
                    if put is not None:
                        l1_fresh.add(item.tag)
                        if coalesce:
                            computed_by_tag[item.tag] = item
                        if self.config.async_put:
                            self._enqueue_put(put)
                        else:
                            sync_puts.append(put)

            # Stage 4: ship all synchronous PUTs under one OCALL.
            if sync_puts:
                self._send_puts_sync(crossing.put_ocall, sync_puts, crossing.send_puts)

        # A record is an equal share of the group's cost, shifted by how far
        # the item's own metered cost sits from the group's mean: what no
        # item owns (ECALL, OCALLs, channel records) is split evenly, and a
        # lone call's record is exactly the call.
        mean_wall = (time.perf_counter() - wall_start) / n
        mean_sim = self.clock.since(sim_start) / self.clock.params.cpu_freq_hz / n
        mean_direct_wall = sum(i.direct_wall for i in items) / n
        mean_direct_sim = sum(i.direct_sim for i in items) / n

        results: list[DedupResult] = []
        for item in items:
            sim = mean_sim + (item.direct_sim - mean_direct_sim)
            wall = mean_wall + (item.direct_wall - mean_direct_wall)
            if adaptive is not None and self.config.dedup_enabled:
                if item.hit:
                    adaptive.observe_hit(func_identity, sim)
                elif item.attempt_dedup:
                    adaptive.observe_miss(func_identity, sim, item.compute_sim)
                else:
                    adaptive.observe_plain_compute(func_identity, item.compute_sim)
            degraded = item.degraded and not item.hit
            item.span.set("source", item.source)
            self.stats.record_call(
                CallRecord(
                    description=label,
                    hit=item.hit,
                    input_bytes=len(item.input_bytes),
                    result_bytes=item.result_len,
                    wall_seconds=wall,
                    sim_seconds=sim,
                    l1_hit=item.source == "l1",
                    batch_size=n,
                    degraded=degraded,
                    coalesced=item.source == "coalesced",
                )
            )
            results.append(
                DedupResult(
                    value=item.result_value,
                    hit=item.hit,
                    l1_hit=item.source == "l1",
                    tag=item.tag,
                    source=item.source,
                    span_id=item.span.span_id,
                    trace_id=trace_id,
                    degraded=degraded,
                )
            )
        return results

    # -- pipeline helpers -----------------------------------------------------
    @contextmanager
    def _item_meter(self, item: _BatchItem) -> Iterator[None]:
        """Accumulate one item's directly-attributable wall/sim costs."""
        wall0 = time.perf_counter()
        sim0 = self.clock.snapshot()
        try:
            yield
        finally:
            item.direct_wall += time.perf_counter() - wall0
            item.direct_sim += self.clock.since(sim0) / self.clock.params.cpu_freq_hz

    def _exchange(
        self, ocall: str, payload: int, send: Callable[[list], EngineBatch], requests: list
    ) -> EngineBatch:
        """``send(requests)``, one round trip, under one OCALL.  A round
        trip lost whole is every request's failure."""
        try:
            with self.enclave.ocall(ocall, in_bytes=payload):
                return send(requests)
        except _STORE_FAILURES as exc:
            return EngineBatch([exc] * len(requests))

    def _l1_lookup(self, item: _BatchItem, result_parser: Parser) -> None:
        with self.tracer.span("runtime.l1_lookup", clock=self.clock) as span:
            cached = self.l1_cache.get(item.tag)
            span.set("hit", cached is not None)
        if cached is not None:
            item.source = "l1"
            item.result_len = len(cached)
            item.result_value = result_parser.decode(cached)

    def _absorb_gets(
        self,
        lookups: list[_BatchItem],
        batch: EngineBatch,
        lanes: Callable[[], Any],
        func_identity: bytes,
        result_parser: Parser,
    ) -> None:
        """Fold the duplicate check's answers in, in position order.

        An answered item is a miss, a hit to verify, or a failure that
        degrades just that item (or is surfaced when the runtime does not
        degrade).  An item the engine coalesced never touched the wire:
        it observes its leader's outcome verbatim — the verified bytes on
        a hit, degradation on a degraded leader, fall-through to stage-3
        compute (where compute coalescing pairs them) otherwise.
        """
        # Per-item verification is enclave-local work with no shared
        # state: the engine accounts it as spread over the worker lanes
        # (one verification per enclave worker thread at a time).
        with lanes() as region:
            for pos, item in enumerate(lookups):
                if pos in batch.leader_of:
                    leader = lookups[batch.leader_of[pos]]
                    if leader.hit:
                        item.follow(leader)
                    elif leader.degraded:
                        item.degraded = True
                    continue
                response = batch.responses[pos]
                if isinstance(response, Exception):
                    if not self.config.degrade_on_store_failure:
                        raise response
                    item.degraded = True
                    continue
                if not isinstance(response, GetResponse):
                    raise DedupError(f"store answered GET with {type(response).__name__}")
                with region.task():
                    if response.found:
                        self._verify_hit(item, response, func_identity, result_parser)
                    elif (
                        response.reason == NoLiveOwnerError.code
                        and self.config.degrade_on_store_failure
                    ):
                        # The router answered "unavailable, recompute".
                        item.degraded = True

    def _verify_hit(
        self,
        item: _BatchItem,
        response: GetResponse,
        func_identity: bytes,
        result_parser: Parser,
    ) -> None:
        """Fig. 3: recover and check the stored result; only a verified
        one is a hit (and remembered in the L1)."""
        with self.tracer.span(
            "runtime.verify", clock=self.clock, index=item.index
        ) as vs, self._item_meter(item):
            outcome = verify_and_recover(
                self.config.scheme, func_identity, item.input_bytes, item.tag,
                ProtectedResult(
                    challenge=response.challenge,
                    wrapped_key=response.wrapped_key,
                    sealed_result=response.sealed_result,
                ),
                self.clock,
            )
            vs.set("ok", outcome.ok)
            if outcome.ok:
                item.source = "store"
                item.result_len = len(outcome.result_bytes)
                item.result_value = result_parser.decode(outcome.result_bytes)
                if self.l1_cache is not None:
                    self.l1_cache.put(item.tag, outcome.result_bytes)
            else:
                self.stats.verification_failures += 1

    # -- fresh computation + PUT (Algorithm 1, lines 4-10) --------------------
    def _compute_item(
        self,
        item: _BatchItem,
        func: Callable,
        func_identity: bytes,
        result_parser: Parser,
        unpack_args: bool,
        native_factor: float,
    ) -> PutRequest | None:
        """Run the function for one miss; returns the protected result to
        PUT (also remembered in the L1), or ``None`` when deduplication
        is off for this item."""
        item.result_value, item.compute_sim = self._compute_raw(
            func, item.input_value, unpack_args, native_factor
        )
        result_bytes = result_parser.encode(item.result_value)
        item.result_len = len(result_bytes)
        if not item.attempt_dedup:
            return None
        if self.l1_cache is not None:
            self.l1_cache.put(item.tag, result_bytes)
        return self._protect_put(func_identity, item.input_bytes, item.tag, result_bytes)

    def _compute_raw(
        self,
        func: Callable,
        input_value: Any,
        unpack_args: bool,
        native_factor: float,
    ) -> tuple[Any, float]:
        with self.tracer.span("runtime.compute", clock=self.clock):
            compute_start = time.perf_counter()
            if unpack_args:
                result_value = func(*input_value)
            else:
                result_value = func(input_value)
            compute_wall = time.perf_counter() - compute_start
            self.clock.charge_compute(compute_wall, native_factor)
        return result_value, compute_wall / native_factor

    def _protect_put(
        self,
        func_identity: bytes,
        input_bytes: bytes,
        tag: bytes,
        result_bytes: bytes,
    ) -> PutRequest:
        protected = self.config.scheme.protect(
            func_identity, input_bytes, tag, result_bytes,
            rand=self.enclave.read_rand, clock=self.clock,
        )
        return PutRequest(
            tag=tag,
            challenge=protected.challenge,
            wrapped_key=protected.wrapped_key,
            sealed_result=protected.sealed_result,
            app_id=self.config.app_id,
        )

    def _send_puts_sync(
        self, ocall: str, puts: list[PutRequest], send: Callable[[list], EngineBatch]
    ) -> None:
        """Send ``puts`` as one round trip under one OCALL and account
        every PUT's verdict (an exception for an op the store did not
        serve).  Failures surface unless the runtime degrades on store
        failure."""
        payload = sum(len(p.sealed_result) + 128 for p in puts)
        verdicts = self._exchange(ocall, payload, send, puts).responses
        # A batch reports "no owner shard answered" in-band where a lone
        # call raises: either way the store gave no verdict.
        verdicts = [
            NoLiveOwnerError(f"{verdict.reason} for tag {put.tag[:8].hex()}")
            if getattr(verdict, "reason", "") == NoLiveOwnerError.code
            else verdict
            for put, verdict in zip(puts, verdicts)
        ]
        if not self.config.degrade_on_store_failure:
            for verdict in verdicts:
                if isinstance(verdict, Exception):
                    raise verdict
        self.stats.puts_sent += len(puts)
        for put, verdict in zip(puts, verdicts):
            self._account_put(put.tag, verdict)

    def _account_put(self, tag: bytes, verdict) -> None:
        """Land one sent PUT in exactly one of ``puts_accepted`` (its tag
        joins :attr:`acked_put_tags`), ``puts_rejected`` (the store said
        no) or ``puts_failed`` (no verdict: the round trip was lost, or
        the store answered with an error)."""
        if not isinstance(verdict, PutResponse):
            self.stats.puts_failed += 1
        elif verdict.accepted:
            self.stats.puts_accepted += 1
            self.acked_put_tags.add(tag)
        else:
            self.stats.puts_rejected += 1

    # -- asynchronous PUT draining ---------------------------------------------
    def _enqueue_put(self, put: PutRequest) -> None:
        """Queue an async PUT, applying the configured back-pressure.

        With ``put_queue_entries > 0`` the queue is bounded: once the
        enqueue reaches the cap, the oldest ``put_flush_batch`` entries
        are drained immediately — the computing caller absorbs the send
        cost rather than the queue growing without limit (the engine's
        background lane overlaps it with foreground work when attached).
        """
        if self._closed:
            raise DedupError("runtime is closed; no further PUTs accepted")
        self._pending_puts.append(put)
        bound = self.config.put_queue_entries
        if bound > 0 and len(self._pending_puts) >= bound:
            if self.engine is not None:
                # Forced drains are the engine's PUT back-pressure
                # signal: the adaptive depth controller shrinks its
                # window instead of piling more work on a full queue.
                self.engine.note_backpressure()
            self.drain_put_batch()

    def drain_put_batch(self, max_items: int | None = None) -> int:
        """Send the oldest queued PUT batch one-way and account any
        responses already available; returns the number sent.

        This is the background flusher's unit of work: bounded, cheap,
        callable between foreground requests.  When an engine is
        attached the drain's clock charges are accounted as the
        engine's background lane — they overlap the next round of
        foreground work instead of adding to the critical path.
        """
        if max_items is None:
            max_items = self.config.put_flush_batch or len(self._pending_puts)
        batch = self._pending_puts[:max_items]
        del self._pending_puts[:max_items]
        if batch:
            if self.engine is not None:
                with self.engine.background():
                    self._send_put_batch_oneway(batch)
            else:
                self._send_put_batch_oneway(batch)
        self._account_put_responses(self.client.drain_responses())
        return len(batch)

    def _send_put_batch_oneway(self, batch: list[PutRequest]) -> None:
        if len(batch) == 1:
            request_id = self.client.send_oneway(batch[0])
        else:
            request_id = self.client.send_oneway_batch(batch)
        self._inflight_puts[request_id] = tuple(p.tag for p in batch)
        self.stats.puts_sent += len(batch)

    def flush_puts(self) -> int:
        """Send all queued PUTs (the "separated thread" of §V-B) and
        account their outcomes; returns the number flushed.

        Called off the latency-critical path — e.g. between requests or
        from the host loop.  Queued PUTs were already protected inside
        the enclave; only untrusted sending remains.  Two or more queued
        PUTs travel as one batched channel record.

        Accounting is explicit: a drained response is attributed to a
        flushed PUT only when its correlation id matches one we sent.
        Each such PUT lands in exactly one of ``puts_accepted``,
        ``puts_rejected`` (the store said no), or ``puts_failed`` (the
        store answered with an error, e.g. the record was corrupted in
        transit).  PUTs whose response never arrived — dropped replies,
        or errors the server could not correlate — stay visible in
        :attr:`puts_unacknowledged` instead of being miscounted.
        """
        flushed = 0
        while self._pending_puts:
            flushed += self.drain_put_batch(max_items=len(self._pending_puts))
        if not flushed:
            self._account_put_responses(self.client.drain_responses())
        return flushed

    def _account_put_responses(self, responses: Sequence[Message]) -> None:
        for response in responses:
            tags = self._inflight_puts.pop(response.request_id, None)
            if tags is None:
                # Not a reply to any PUT we are waiting on (e.g. an
                # uncorrelated decode error): the affected PUTs remain
                # in puts_unacknowledged rather than being guessed at.
                continue
            if isinstance(response, BatchPutResponse):
                verdicts: Sequence = response.items
            else:
                # A lone PUT's own verdict, or an error reply that fails
                # every PUT of the send.
                verdicts = [response] * len(tags)
            for tag, verdict in zip(tags, verdicts):
                self._account_put(tag, verdict)

    @property
    def pending_put_count(self) -> int:
        return len(self._pending_puts)

    @property
    def puts_unacknowledged(self) -> int:
        """Flushed PUTs whose response has not been drained (or was lost)."""
        return sum(len(tags) for tags in self._inflight_puts.values())

    def snapshot(self) -> dict:
        """The runtime's full observability export: every RuntimeStats
        counter plus the in-flight PUT state only the runtime can see."""
        snap = self.stats.snapshot()
        snap["runtime.pending_puts"] = self.pending_put_count
        snap["runtime.puts_unacknowledged"] = self.puts_unacknowledged
        snap["runtime.puts_acked_unique"] = len(self.acked_put_tags)
        if self.l1_cache is not None:
            snap["runtime.l1_entries"] = len(self.l1_cache)
        return snap
