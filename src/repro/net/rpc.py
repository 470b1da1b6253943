"""Request/response layer over the loopback transport.

DedupRuntime issues a synchronous ``GET_REQUEST`` (the OCALL "needs to
wait until receiving corresponding GET_RESPONSE", §IV-B) and an
asynchronous ``PUT_REQUEST``.  The server side is a reactor: the network
invokes it as messages arrive, which models the ResultStore process
draining its socket.  All payloads crossing this layer are channel
*records*: plaintext messages only ever exist inside the two enclaves.

One request path: every waited-for request is *started* (given a
correlation id the server echoes, remembered whole, sent) and later
*settled* (its own response taken from the inbox, under the retry
schedule).  :meth:`RpcClient.call` is start+settle in one step,
``submit``/``wait`` split the two so N requests are in flight at once,
``call_batch`` and ``submit_gets``/``submit_puts`` do either with a
uniform list shipped as one ``BATCH_*`` message: one channel record (one
AEAD seal/open per direction) and one server-side ECALL instead of N of
each.  A settle always receives *its own* response: replies to other
started requests are parked for their waiters, replies to one-way sends
are handed out by :meth:`RpcClient.drain_responses`.

Fault tolerance: an optional :class:`RetryPolicy` makes a settle retry
transient failures with exponential backoff (charged to the SimClock)
and *deterministic* jitter.  Retries reuse the original correlation id,
so a retried PUT whose first copy actually arrived is a store-side
duplicate ("already stored", accepted) rather than a double write.
Wire-duplicated or replayed response records are rejected by the
channel's sequence check (counted, not fatal), and duplicate response
*ids* that survive an unsequenced channel are dropped before they can
reach the wrong waiter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .channel import ChannelEndpoint
from .messages import (
    BatchGetRequest,
    BatchGetResponse,
    BatchPutRequest,
    BatchPutResponse,
    ErrorMessage,
    GetRequest,
    Message,
    PutRequest,
    decode_message,
    encode_message,
    with_request_id,
)
from .transport import Endpoint
from ..crypto.hashes import tagged_hash
from ..errors import ChannelError, ProtocolError, RetryExhaustedError, TransportError
from ..obs.tracer import NULL_TRACER


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for synchronous calls.

    ``max_attempts=1`` (the default) disables retries entirely, keeping
    the historical fail-fast behaviour.  The delay before attempt ``k``
    (k >= 1 retries) is ``base_delay_s * multiplier**(k-1)`` capped at
    ``max_delay_s``, reduced by up to ``jitter`` (a 0..1 fraction) using
    a hash of (server, correlation id, attempt) — deterministic, so
    simulated runs replay identically, yet decorrelated across callers.
    """

    max_attempts: int = 1
    base_delay_s: float = 200e-6
    multiplier: float = 2.0
    max_delay_s: float = 20e-3
    jitter: float = 0.5
    # A correlated ErrorMessage (server code 500) or an uncorrelated 400
    # (the server could not parse a corrupted record) is deterministic
    # for a fixed request *unless* the wire mangled it — under active
    # fault injection retrying it is the right call.
    retry_protocol_errors: bool = False

    def delay_for(self, retry_index: int, salt: bytes) -> float:
        raw = min(self.max_delay_s, self.base_delay_s * self.multiplier**retry_index)
        if not self.jitter:
            return raw
        digest = tagged_hash(b"rpc/backoff", salt, retry_index.to_bytes(4, "big"))
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return raw * (1.0 - self.jitter * fraction)


class RpcServer:
    """Reactor serving protected messages on one endpoint."""

    def __init__(
        self,
        endpoint: Endpoint,
        channel: ChannelEndpoint,
        handler: Callable[[Message], Message],
        wrap_factory: Callable[[str, int], object] | None = None,
    ):
        self._endpoint = endpoint
        self._channel = channel
        self._handler = handler
        # For an SGX-hosted service: a factory returning a context manager
        # (typically ``enclave.ecall``) wrapping each request, so channel
        # crypto and dictionary access happen inside the enclave and the
        # ECALL transition cost is charged (paper §IV-B).
        self._wrap_factory = wrap_factory
        self.requests_served = 0

    def _process(self, record: bytes) -> bytes:
        request_id = 0
        try:
            request = decode_message(self._channel.unprotect(record))
        except Exception as exc:  # channel/protocol violation
            response: Message = ErrorMessage(code=400, detail=str(exc))
        else:
            request_id = request.request_id
            try:
                response = self._handler(request)
            except Exception as exc:
                response = ErrorMessage(code=500, detail=str(exc))
        return self._channel.protect(encode_message(with_request_id(response, request_id)))

    def pump(self) -> int:
        """Serve every pending request; returns the number served."""
        served = 0
        while self._endpoint.pending():
            source, record = self._endpoint.recv()
            if self._wrap_factory is not None:
                with self._wrap_factory("serve_request", len(record)):
                    reply = self._process(record)
            else:
                reply = self._process(record)
            self._endpoint.send(source, reply)
            served += 1
            self.requests_served += 1
        return served


class RpcClient:
    """Synchronous caller; also supports fire-and-forget sends."""

    def __init__(
        self,
        endpoint: Endpoint,
        channel: ChannelEndpoint,
        server_address: str,
        tracer=NULL_TRACER,
        clock=None,
        retry_policy: RetryPolicy | None = None,
    ):
        self._endpoint = endpoint
        self._channel = channel
        self._server_address = server_address
        self._next_request_id = 1
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.clock = clock
        self.retry_policy = retry_policy
        # Responses addressed to one-way sends that arrived while a sync
        # call was scanning the inbox; surfaced by drain_responses().
        self._stray_responses: list[Message] = []
        self._stray_ids: set[int] = set()
        # Correlation ids already answered: a later response with the same
        # id is a duplicate (wire-level or replayed) and must never reach
        # another waiter.
        self._seen_response_ids: set[int] = set()
        # Multi-slot pipelining: requests submitted but not yet waited on
        # (kept whole so wait() can retry under the same correlation id),
        # and responses that arrived while another waiter was scanning.
        self._pipeline: dict[int, Message] = {}
        self._completed: dict[int, Message] = {}
        self.retries = 0
        self.backoff_seconds_total = 0.0
        self.records_rejected = 0
        self.duplicates_dropped = 0
        self.submits = 0
        self.max_inflight = 0

    @property
    def server_address(self) -> str:
        """Network address of the server this client is bound to (the
        cluster router labels per-shard failures with it)."""
        return self._server_address

    @property
    def records_sent(self) -> int:
        """Channel records this client has sealed (the benchmark's
        records-per-call numerator)."""
        return self._channel.records_protected

    def _fresh_request_id(self) -> int:
        request_id = self._next_request_id
        self._next_request_id += 1
        return request_id

    def _send(self, request: Message) -> None:
        self._endpoint.send(
            self._server_address, self._channel.protect(encode_message(request))
        )

    def _recv_one(self) -> Message:
        _source, record = self._endpoint.recv()
        return decode_message(self._channel.unprotect(record))

    # -- the one request path: start, then settle ------------------------------
    def _start(self, request: Message) -> int:
        """Assign a correlation id, remember the request whole (so
        :meth:`_settle` can resend it under the same id) and send it.  A
        send that fails outright is left to the settle's retry schedule."""
        request_id = self._fresh_request_id()
        request = with_request_id(request, request_id)
        self._pipeline[request_id] = request
        try:
            self._send(request)
        except TransportError:
            pass  # _settle retries (or surfaces) under the same id
        return request_id

    def _settle(self, request_id: int) -> Message:
        """Block on the response to a started request.  With a
        :class:`RetryPolicy`, transient failures (no response, optionally
        server errors) are retried under the *same* correlation id after
        a backoff charged to the SimClock, so a retried PUT whose first
        copy landed is deduplicated store-side."""
        request = self._pipeline[request_id]
        policy = self.retry_policy
        attempts = max(1, policy.max_attempts) if policy is not None else 1
        last_error: Exception | None = None
        try:
            for attempt in range(attempts):
                try:
                    if attempt:
                        self.retries += 1
                        self._charge_backoff(policy, attempt - 1, request_id)
                        self._send(request)
                    return self._take_response(request_id)
                except TransportError as exc:
                    last_error = exc
                except ProtocolError as exc:
                    if policy is None or not policy.retry_protocol_errors:
                        raise
                    last_error = exc
        finally:
            self._pipeline.pop(request_id, None)
        assert last_error is not None
        if attempts > 1:
            raise RetryExhaustedError(
                f"request {request_id} to {self._server_address!r} failed "
                f"after {attempts} attempts: {last_error}"
            ) from last_error
        raise last_error

    def _charge_backoff(self, policy: RetryPolicy, retry_index: int, request_id: int) -> None:
        salt = self._server_address.encode() + request_id.to_bytes(8, "big")
        delay = policy.delay_for(retry_index, salt)
        self.backoff_seconds_total += delay
        if self.clock is not None:
            self.clock.charge_seconds(delay, "backoff")

    def _take_response(self, request_id: int) -> Message:
        """One settle attempt: a response parked while another waiter was
        scanning first, then the inbox.  Records the channel rejects
        (duplicated/reordered/corrupted wire records fail the sequence or
        AEAD check) are counted and skipped rather than aborting the call;
        responses whose correlation id was already answered are dropped so
        a replay can never be delivered to a different waiter."""
        response = self._completed.pop(request_id, None)
        while response is None:
            if not self._endpoint.pending():
                raise TransportError("no response arrived (server reactor not attached?)")
            try:
                candidate = self._recv_one()
            except ChannelError:
                self.records_rejected += 1
                continue
            rid = candidate.request_id
            if rid == request_id:
                response = candidate
            elif isinstance(candidate, ErrorMessage) and rid == 0:
                # The server could not even parse the offending request,
                # so it could not echo an id: surfaced to this caller.
                raise ProtocolError(f"server error {candidate.code}: {candidate.detail}")
            elif rid in self._seen_response_ids or rid in self._stray_ids or rid in self._completed:
                self.duplicates_dropped += 1
            elif rid in self._pipeline:
                # Another started request's response: park it for its waiter.
                self._completed[rid] = candidate
            else:
                # A reply to an earlier one-way send: for drain_responses().
                self._stray_ids.add(rid)
                self._stray_responses.append(candidate)
        self._seen_response_ids.add(request_id)
        if isinstance(response, ErrorMessage):
            raise ProtocolError(f"server error {response.code}: {response.detail}")
        return response

    @staticmethod
    def _as_record(requests: Sequence[Message], batch_type: type) -> Message:
        """A group's wire form: a lone item travels as itself."""
        requests = tuple(requests)
        return requests[0] if len(requests) == 1 else batch_type(items=requests)

    @staticmethod
    def _group_items(response: Message, n_items: int, batch_type: type | None) -> list[Message]:
        """Per-item responses of a group the store must answer with
        ``batch_type`` (``None``: a lone item, answered as itself)."""
        if batch_type is None:
            return [response]
        if not isinstance(response, batch_type):
            raise ProtocolError(f"store answered batch with {type(response).__name__}")
        if len(response.items) != n_items:
            raise ProtocolError(f"batch response has {len(response.items)} items, not {n_items}")
        return list(response.items)

    def _span(self, name: str, request: Message, **attrs):
        return self.tracer.span(
            name, clock=self.clock,
            message=type(request).__name__, server=self._server_address, **attrs,
        )

    # -- public entry points: compositions of start/settle ---------------------
    def call(self, request: Message) -> Message:
        """Send a request and block on the *matching* response: start
        and settle in one step.

        Responses carrying other correlation ids (replies to earlier
        one-way sends) are buffered for :meth:`drain_responses` rather
        than returned here.  An uncorrelated ``ErrorMessage`` (the server
        could not even parse the offending request, so it could not echo
        an id) is surfaced to this caller.  Retries follow the attached
        :class:`RetryPolicy` (see :meth:`_settle`).
        """
        with self._span("rpc.call", request):
            return self._settle(self._start(request))

    def submit(self, request: Message) -> int:
        """Send a correlated request without waiting; returns its slot id.

        Up to N submitted requests may be outstanding on the connection
        at once (correlation ids keep their responses apart); each is
        settled by :meth:`wait`.  A send that fails outright is deferred:
        :meth:`wait` resends it under the same correlation id via the
        retry policy, preserving the idempotency guarantees of
        :meth:`call`.
        """
        with self._span("rpc.submit", request):
            request_id = self._start(request)
            self.submits += 1
            self.max_inflight = max(self.max_inflight, len(self._pipeline))
            return request_id

    def wait(self, request_id: int) -> Message:
        """Block on the response to a :meth:`submit`-ted request.

        Applies the same retry/backoff schedule as :meth:`call`, reusing
        the original correlation id so a retried request whose first copy
        landed is deduplicated server-side.  Responses that arrived while
        other slots were being waited on are delivered from the parked
        set without touching the wire.
        """
        request = self._pipeline.get(request_id)
        if request is None:
            raise ProtocolError(
                f"request {request_id} was never submitted (or already waited on)"
            )
        with self._span("rpc.wait", request):
            return self._settle(request_id)

    # The batch and group entry points below run these three under private
    # names, never the public ones, so a wrapper patched over a public name
    # (benchmarks/e2e/tracing.py does that) sees each public call once.
    _call, _submit, _wait = call, submit, wait

    def call_batch(self, requests: Sequence[Message]) -> list[Message]:
        """Issue a uniform batch of GETs or PUTs under one channel record.

        Returns the per-item responses in request order.  The batch is
        protected as a single record, so the AEAD and sequencing costs of
        the secure channel — and the store's ECALL — are paid once for
        the whole batch instead of once per item.
        """
        requests = tuple(requests)
        if not requests:
            return []
        if all(isinstance(r, GetRequest) for r in requests):
            batch: Message = BatchGetRequest(items=requests)
            expected: type = BatchGetResponse
        elif all(isinstance(r, PutRequest) for r in requests):
            batch = BatchPutRequest(items=requests)
            expected = BatchPutResponse
        else:
            raise ProtocolError("call_batch needs a uniform list of GETs or PUTs")
        return self._group_items(self._call(batch), len(requests), expected)

    # -- grouped pipelining (one record per submitted group) -----------------
    def plan_gets(self, requests: Sequence[GetRequest]) -> list[list[int]]:
        """Partition GET indices into groups that can share one wire
        record.  One server, one connection: everything is one group."""
        return [list(range(len(requests)))] if requests else []

    def submit_gets(self, requests: Sequence[GetRequest]) -> int:
        """Submit a GET group as a single channel record without waiting.

        The group costs one AEAD seal (and one server ECALL) like
        :meth:`call_batch`, but the slot is settled later by
        :meth:`wait_gets` — so several groups, e.g. one per shard, can be
        in flight at once.
        """
        return self._submit(self._as_record(requests, BatchGetRequest))

    def wait_gets(self, handle: int, n_items: int) -> list[Message]:
        """Settle a :meth:`submit_gets` slot into per-item responses."""
        return self._group_items(
            self._wait(handle), n_items, BatchGetResponse if n_items != 1 else None
        )

    def plan_puts(self, requests: Sequence[PutRequest]) -> list[list[int]]:
        """Partition PUT indices into groups that can share one wire
        record.  One server, one connection: everything is one group."""
        return [list(range(len(requests)))] if requests else []

    def submit_puts(self, requests: Sequence[PutRequest]) -> int:
        """Submit a PUT group as a single channel record without waiting
        (the PUT twin of :meth:`submit_gets`)."""
        return self._submit(self._as_record(requests, BatchPutRequest))

    def wait_puts(self, handle: int, n_items: int) -> list[Message]:
        """Settle a :meth:`submit_puts` slot into per-item verdicts."""
        return self._group_items(
            self._wait(handle), n_items, BatchPutResponse if n_items != 1 else None
        )

    # -- fire-and-forget --------------------------------------------------------
    def _send_untracked(self, request: Message, **attrs) -> int:
        with self._span("rpc.send", request, **attrs):
            request_id = self._fresh_request_id()
            self._send(with_request_id(request, request_id))
            return request_id

    def send_oneway(self, request: Message) -> int:
        """Fire-and-forget (used by the asynchronous PUT path); returns the
        assigned correlation id so the caller can match the eventual
        response from :meth:`drain_responses`."""
        return self._send_untracked(request)

    def send_oneway_batch(self, requests: Sequence[PutRequest]) -> int:
        """Fire-and-forget an entire PUT batch as one channel record."""
        return self._send_untracked(
            BatchPutRequest(items=tuple(requests)), items=len(requests)
        )

    def drain_responses(self) -> list[Message]:
        """Collect any responses to one-way sends (off the critical path).

        Includes responses that a synchronous :meth:`call` encountered and
        set aside while scanning for its own reply.  Undecryptable records
        and responses whose correlation id was already delivered are
        counted and dropped, exactly as in :meth:`call` — an id is handed
        out at most once.
        """
        pending: list[Message] = self._stray_responses
        self._stray_responses = []
        self._stray_ids.clear()
        while self._endpoint.pending():
            try:
                pending.append(self._recv_one())
            except ChannelError:
                self.records_rejected += 1
        out: list[Message] = []
        for response in pending:
            rid = response.request_id
            if rid != 0 and (rid in self._seen_response_ids or rid in self._completed):
                self.duplicates_dropped += 1
                continue
            if rid in self._pipeline:
                # Belongs to a submitted slot: park it for wait(), never
                # hand a pipelined response out as a stray.
                self._completed[rid] = response
                continue
            if rid != 0:
                self._seen_response_ids.add(rid)
            out.append(response)
        return out

    def snapshot(self) -> dict:
        """Canonical ``rpc.<metric>`` counters for the metrics registry."""
        return {
            "rpc.retries": self.retries,
            "rpc.backoff_seconds_total": self.backoff_seconds_total,
            "rpc.records_rejected": self.records_rejected,
            "rpc.duplicate_responses_dropped": self.duplicates_dropped,
            "rpc.records_sent": self.records_sent,
            "rpc.pipelined_submits": self.submits,
            "rpc.pipeline_max_inflight": self.max_inflight,
        }


def attach_reactor(network, address: str, server: RpcServer) -> None:
    """Wire a server so it drains its inbox whenever a message lands."""
    network.set_reactor(address, server)
