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

Two optimizations amortize the fixed per-call costs without touching the
per-item semantics above:

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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

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
    * ``span_id``/``trace_id`` — the call's root span when a tracer is
      attached (``None`` under the default :data:`NULL_TRACER`).
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
    """Per-input bookkeeping while a batch moves through the pipeline."""

    input_value: Any
    input_bytes: bytes = b""
    tag: bytes = b""
    attempt_dedup: bool = False
    hit: bool = False
    l1_hit: bool = False
    coalesced: bool = False
    degraded: bool = False
    result_value: Any = None
    result_len: int = 0
    compute_sim: float = 0.0
    # Costs attributable to this item alone; batch-shared costs (ECALL,
    # batched OCALLs, channel records) are split evenly afterwards.
    direct_wall: float = 0.0
    direct_sim: float = 0.0


class _SerialRegion:
    """No-op stand-in for :meth:`PipelineEngine.parallel_region` used when
    no engine is attached: tasks run (and are accounted) serially."""

    def __enter__(self) -> "_SerialRegion":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def task(self) -> "_SerialRegion":
        return self


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
        the engine's makespan accounting — changes.
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
        input_parser = input_parser or AnyParser(self.parsers)
        result_parser = result_parser or AnyParser(self.parsers)
        wall_start = time.perf_counter()
        sim_start = self.clock.snapshot()

        with self.tracer.span(
            "runtime.execute", clock=self.clock, func=str(description)
        ) as root:
            with self.enclave.ecall("dedup_execute"):
                func = self.libraries.lookup(description)
                func_identity = self.libraries.function_identity(description)
                with self.tracer.span("runtime.tag", clock=self.clock):
                    input_bytes = input_parser.encode(input_value)
                    tag = derive_tag(func_identity, input_bytes, self.clock)

                result_value = None
                hit = False
                l1_hit = False
                result_len = 0

                attempt_dedup = self.config.dedup_enabled
                adaptive = self.config.adaptive
                if attempt_dedup and adaptive is not None:
                    attempt_dedup = adaptive.should_attempt_dedup(func_identity)
                compute_sim_seconds = 0.0

                if attempt_dedup and self.l1_cache is not None:
                    with self.tracer.span("runtime.l1_lookup", clock=self.clock) as l1s:
                        cached = self.l1_cache.get(tag)
                        l1s.set("hit", cached is not None)
                    if cached is not None:
                        hit = l1_hit = True
                        result_len = len(cached)
                        result_value = result_parser.decode(cached)

                degraded = False
                if attempt_dedup and not hit:
                    try:
                        response = self._get(tag, len(input_bytes))
                    except _STORE_FAILURES:
                        if not self.config.degrade_on_store_failure:
                            raise
                        degraded = True
                        response = GetResponse(found=False)
                    if (
                        not response.found
                        and response.reason == NoLiveOwnerError.code
                        and self.config.degrade_on_store_failure
                    ):
                        # The router answered "unavailable, recompute":
                        # same degradation, reported in-band.
                        degraded = True
                    if response.found:
                        protected = ProtectedResult(
                            challenge=response.challenge,
                            wrapped_key=response.wrapped_key,
                            sealed_result=response.sealed_result,
                        )
                        with self.tracer.span("runtime.verify", clock=self.clock) as vs:
                            outcome = verify_and_recover(
                                self.config.scheme, func_identity, input_bytes, tag,
                                protected, self.clock,
                            )
                            vs.set("ok", outcome.ok)
                        if outcome.ok:
                            hit = True
                            result_len = len(outcome.result_bytes)
                            result_value = result_parser.decode(outcome.result_bytes)
                            if self.l1_cache is not None:
                                self.l1_cache.put(tag, outcome.result_bytes)
                        else:
                            self.stats.verification_failures += 1

                if not hit:
                    result_value, result_len, compute_sim_seconds = self._compute_and_put(
                        func, description, func_identity, input_value, input_bytes,
                        tag, result_parser, unpack_args, native_factor,
                        store_result=attempt_dedup,
                    )
            source = "l1" if l1_hit else ("store" if hit else "computed")
            root.set("source", source)
            root_span_id = root.span_id
            root_trace_id = self.tracer.current_trace_id

        wall = time.perf_counter() - wall_start
        sim = self.clock.since(sim_start) / self.clock.params.cpu_freq_hz
        if adaptive is not None and self.config.dedup_enabled:
            if hit:
                adaptive.observe_hit(func_identity, sim)
            elif attempt_dedup:
                adaptive.observe_miss(func_identity, sim, compute_sim_seconds)
            else:
                adaptive.observe_plain_compute(func_identity, compute_sim_seconds)
        self.stats.record_call(
            CallRecord(
                description=str(description),
                hit=hit,
                input_bytes=len(input_bytes),
                result_bytes=result_len,
                wall_seconds=wall,
                sim_seconds=sim,
                l1_hit=l1_hit,
                degraded=degraded,
            )
        )
        return DedupResult(
            value=result_value,
            hit=hit,
            l1_hit=l1_hit,
            tag=tag,
            source=source,
            span_id=root_span_id,
            trace_id=root_trace_id,
            degraded=degraded,
        )

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
        input_parser = input_parser or AnyParser(self.parsers)
        result_parser = result_parser or AnyParser(self.parsers)
        n = len(inputs)
        items = [_BatchItem(input_value=value) for value in inputs]
        item_span_ids: list[int | None] = [None] * n
        adaptive = self.config.adaptive
        wall_start = time.perf_counter()
        sim_start = self.clock.snapshot()

        with self.tracer.span(
            "runtime.execute_batch", clock=self.clock,
            func=str(description), items=n,
        ):
            batch_trace_id = self.tracer.current_trace_id
            with self.enclave.ecall("dedup_execute_batch"):
                func = self.libraries.lookup(description)
                func_identity = self.libraries.function_identity(description)

                # Stage 1: derive every tag; serve what the L1 already holds.
                # Per-item derivation is independent enclave work, so with
                # the engine attached it rides the worker lanes exactly like
                # stage-2 verification.
                stage1_region = (
                    self.engine.parallel_region()
                    if self.engine is not None
                    else _SerialRegion()
                )
                with stage1_region as region:
                    for index, item in enumerate(items):
                        with self.tracer.span(
                            "runtime.item", clock=self.clock, index=index
                        ) as item_span, self._item_meter(item), region.task():
                            item.input_bytes = input_parser.encode(
                                item.input_value
                            )
                            item.tag = derive_tag(
                                func_identity, item.input_bytes, self.clock
                            )
                            attempt = self.config.dedup_enabled
                            if attempt and adaptive is not None:
                                attempt = adaptive.should_attempt_dedup(
                                    func_identity
                                )
                            item.attempt_dedup = attempt
                            if attempt and self.l1_cache is not None:
                                cached = self.l1_cache.get(item.tag)
                                if cached is not None:
                                    item.hit = item.l1_hit = True
                                    item.result_len = len(cached)
                                    item.result_value = result_parser.decode(
                                        cached
                                    )
                            item_span.set("l1_hit", item.l1_hit)
                            item_span_ids[index] = item_span.span_id

                # Stage 2: one multi-tag duplicate check for everything the
                # L1 could not answer (Algorithm 2, lines 2-3, batched).
                lookups = [
                    (index, item)
                    for index, item in enumerate(items)
                    if item.attempt_dedup and not item.hit
                ]
                if lookups:
                    requests = [
                        GetRequest(tag=item.tag, app_id=self.config.app_id)
                        for _, item in lookups
                    ]
                    payload = sum(len(item.tag) + 64 for _, item in lookups)
                    if self.engine is not None:
                        with self.enclave.ocall("batch_get_request", in_bytes=payload):
                            batch = self.engine.run_gets(requests)
                        self._absorb_engine_gets(
                            lookups, batch, func_identity, result_parser
                        )
                    else:
                        try:
                            with self.enclave.ocall(
                                "batch_get_request", in_bytes=payload
                            ):
                                responses = self.client.call_batch(requests)
                        except _STORE_FAILURES:
                            if not self.config.degrade_on_store_failure:
                                raise
                            # The whole duplicate check was lost: every
                            # item degrades to local compute (stage 3).
                            for _, item in lookups:
                                item.degraded = True
                            responses = []
                            lookups = []
                        for (index, item), response in zip(lookups, responses):
                            self._absorb_get_response(
                                index, item, response, func_identity, result_parser
                            )

                # Stage 3: compute the misses in input order (Algorithm 1).
                # With the engine's single-flight mode on, later misses
                # whose tag an earlier miss already computed this batch
                # join that leader in-enclave: one compute, one PUT.
                sync_puts: list[PutRequest] = []
                coalesce = (
                    self.engine is not None and self.engine.config.coalesce
                )
                computed_by_tag: dict[bytes, _BatchItem] = {}
                for item in items:
                    if item.hit:
                        continue
                    if coalesce and item.attempt_dedup:
                        leader = computed_by_tag.get(item.tag)
                        if leader is not None:
                            item.hit = True
                            item.coalesced = True
                            item.degraded = False
                            item.result_len = leader.result_len
                            item.result_value = leader.result_value
                            continue
                    with self._item_meter(item):
                        self._compute_batch_item(
                            item, func, func_identity, result_parser,
                            unpack_args, native_factor, sync_puts,
                        )
                    if coalesce and item.attempt_dedup and not item.l1_hit:
                        computed_by_tag[item.tag] = item

                # Stage 4: ship all synchronous PUTs as one record/OCALL.
                if sync_puts:
                    self._send_puts_sync(
                        "batch_put_request", sync_puts, self._batch_put_verdicts
                    )

        total_wall = time.perf_counter() - wall_start
        total_sim = self.clock.since(sim_start) / self.clock.params.cpu_freq_hz
        shared_wall = max(0.0, total_wall - sum(i.direct_wall for i in items)) / n
        shared_sim = max(0.0, total_sim - sum(i.direct_sim for i in items)) / n

        self.stats.batches += 1
        results: list[DedupResult] = []
        for index, item in enumerate(items):
            sim = item.direct_sim + shared_sim
            wall = item.direct_wall + shared_wall
            if adaptive is not None and self.config.dedup_enabled:
                if item.hit:
                    adaptive.observe_hit(func_identity, sim)
                elif item.attempt_dedup:
                    adaptive.observe_miss(func_identity, sim, item.compute_sim)
                else:
                    adaptive.observe_plain_compute(func_identity, item.compute_sim)
            self.stats.record_call(
                CallRecord(
                    description=str(description),
                    hit=item.hit,
                    input_bytes=len(item.input_bytes),
                    result_bytes=item.result_len,
                    wall_seconds=wall,
                    sim_seconds=sim,
                    l1_hit=item.l1_hit,
                    batch_size=n,
                    degraded=item.degraded and not item.hit,
                    coalesced=item.coalesced,
                )
            )
            results.append(
                DedupResult(
                    value=item.result_value,
                    hit=item.hit,
                    l1_hit=item.l1_hit,
                    tag=item.tag,
                    source="coalesced" if item.coalesced else (
                        "l1" if item.l1_hit else (
                            "store" if item.hit else "computed"
                        )
                    ),
                    span_id=item_span_ids[index],
                    trace_id=batch_trace_id,
                    degraded=item.degraded and not item.hit,
                )
            )
        return results

    # -- batch helpers --------------------------------------------------------
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

    def _absorb_get_response(
        self,
        index: int,
        item: _BatchItem,
        response: Message,
        func_identity: bytes,
        result_parser: Parser,
    ) -> None:
        """Fold one store GET response into its batch item (type check,
        miss/degrade handling, Fig. 3 verification on a hit)."""
        if not isinstance(response, GetResponse):
            raise DedupError(
                f"store answered GET with {type(response).__name__}"
            )
        if not response.found:
            if (
                response.reason == NoLiveOwnerError.code
                and self.config.degrade_on_store_failure
            ):
                item.degraded = True
            return
        with self.tracer.span(
            "runtime.verify", clock=self.clock, index=index
        ) as vs, self._item_meter(item):
            self._verify_batch_hit(item, response, func_identity, result_parser)
            vs.set("ok", item.hit)

    def _absorb_engine_gets(
        self,
        lookups: list,
        batch,
        func_identity: bytes,
        result_parser: Parser,
    ) -> None:
        """Fold a pipelined :class:`~repro.engine.EngineBatch` of GETs in.

        Leaders (one per distinct tag) are verified exactly like the
        serial path; a per-op failure degrades just that item (or is
        surfaced, matching the serial whole-batch raise policy).
        Coalesced followers never touched the wire — they observe their
        leader's outcome verbatim: the leader's verified bytes on a hit,
        degradation on a degraded leader, or fall-through to stage-3
        compute on a miss/failed verification.
        """
        followers = batch.leader_of
        # Per-item verification is enclave-local work with no shared
        # state: the engine accounts it as spread over the worker lanes
        # (one verification per enclave worker thread at a time).
        with self.engine.parallel_region() as region:
            for pos, (index, item) in enumerate(lookups):
                if pos in followers:
                    continue
                response = batch.responses[pos]
                if isinstance(response, Exception):
                    if not self.config.degrade_on_store_failure:
                        raise response
                    item.degraded = True
                    continue
                with region.task():
                    self._absorb_get_response(
                        index, item, response, func_identity, result_parser
                    )
        for pos, leader_pos in followers.items():
            _, item = lookups[pos]
            _, leader = lookups[leader_pos]
            if leader.hit:
                item.hit = True
                item.coalesced = True
                item.result_len = leader.result_len
                item.result_value = leader.result_value
            elif leader.degraded:
                item.degraded = True
            # Leader miss (or failed verification): the follower falls
            # through to stage 3, where compute coalescing pairs them.

    def _verify_batch_hit(
        self,
        item: _BatchItem,
        response: GetResponse,
        func_identity: bytes,
        result_parser: Parser,
    ) -> None:
        protected = ProtectedResult(
            challenge=response.challenge,
            wrapped_key=response.wrapped_key,
            sealed_result=response.sealed_result,
        )
        outcome = verify_and_recover(
            self.config.scheme, func_identity, item.input_bytes, item.tag,
            protected, self.clock,
        )
        if outcome.ok:
            item.hit = True
            item.result_len = len(outcome.result_bytes)
            item.result_value = result_parser.decode(outcome.result_bytes)
            if self.l1_cache is not None:
                self.l1_cache.put(item.tag, outcome.result_bytes)
        else:
            self.stats.verification_failures += 1

    def _compute_batch_item(
        self,
        item: _BatchItem,
        func: Callable,
        func_identity: bytes,
        result_parser: Parser,
        unpack_args: bool,
        native_factor: float,
        sync_puts: list[PutRequest],
    ) -> None:
        if item.attempt_dedup and self.l1_cache is not None:
            # An earlier miss in this very batch may have computed the
            # same tag already — mirror the sequential-with-cache order.
            cached = self.l1_cache.get(item.tag)
            if cached is not None:
                item.hit = item.l1_hit = True
                item.result_len = len(cached)
                item.result_value = result_parser.decode(cached)
                return
        item.result_value, item.compute_sim = self._compute_raw(
            func, item.input_value, unpack_args, native_factor
        )
        result_bytes = result_parser.encode(item.result_value)
        item.result_len = len(result_bytes)
        if not (self.config.dedup_enabled and item.attempt_dedup):
            return
        if self.l1_cache is not None:
            self.l1_cache.put(item.tag, result_bytes)
        put = self._protect_put(func_identity, item.input_bytes, item.tag, result_bytes)
        if self.config.async_put:
            self._enqueue_put(put)
        else:
            sync_puts.append(put)

    # -- GET (Algorithm 2, lines 2-3) ----------------------------------------
    def _get(self, tag: bytes, input_len: int) -> GetResponse:
        request = GetRequest(tag=tag, app_id=self.config.app_id)
        with self.enclave.ocall("get_request", in_bytes=len(tag) + 64):
            response = self.client.call(request)
        if not isinstance(response, GetResponse):
            raise DedupError(f"store answered GET with {type(response).__name__}")
        return response

    # -- fresh computation + PUT (Algorithm 1, lines 4-10) --------------------
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

    def _compute_and_put(
        self,
        func: Callable,
        description: FunctionDescription,
        func_identity: bytes,
        input_value: Any,
        input_bytes: bytes,
        tag: bytes,
        result_parser: Parser,
        unpack_args: bool,
        native_factor: float,
        store_result: bool = True,
    ) -> tuple[Any, int, float]:
        result_value, compute_sim = self._compute_raw(
            func, input_value, unpack_args, native_factor
        )
        result_bytes = result_parser.encode(result_value)
        if self.config.dedup_enabled and store_result:
            if self.l1_cache is not None:
                self.l1_cache.put(tag, result_bytes)
            put = self._protect_put(func_identity, input_bytes, tag, result_bytes)
            if self.config.async_put:
                self._enqueue_put(put)
            else:
                self._send_puts_sync(
                    "put_request", [put], lambda puts: [self.client.call(puts[0])]
                )
        return result_value, len(result_bytes), compute_sim

    def _batch_put_verdicts(self, puts: list[PutRequest]) -> Sequence:
        if self.engine is not None:
            return self.engine.run_puts(puts).responses
        return self.client.call_batch(puts)

    def _send_puts_sync(
        self, ocall: str, puts: list[PutRequest], send: Callable[[list], Sequence]
    ) -> None:
        """Run ``send(puts)``, the PUTs' round trip, under one OCALL and
        account every PUT's verdict.  ``send`` returns one verdict per
        PUT (an exception instance for an op the store did not serve); a
        round trip lost whole is every PUT's failure.  Failures surface
        unless the runtime degrades on store failure."""
        payload = sum(len(p.sealed_result) + 128 for p in puts)
        try:
            with self.enclave.ocall(ocall, in_bytes=payload):
                verdicts = send(puts)
        except _STORE_FAILURES as exc:
            verdicts = [exc] * len(puts)
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
