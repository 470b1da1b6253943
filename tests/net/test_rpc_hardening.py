"""Hardened RPC client: retry/backoff, idempotent ids, duplicate and
reordered responses, stray-correlation-id safety."""

import pytest

from repro.errors import ProtocolError, RetryExhaustedError, TransportError
from repro.net.messages import (
    GetRequest,
    GetResponse,
    PutRequest,
    PutResponse,
)
from repro.net.rpc import RetryPolicy, RpcClient, RpcServer
from repro.net.transport import FaultInjector, Network
from repro.sgx.cost_model import SimClock

from .conftest import plain_channel_pair

TAG = b"\x01" * 32


class _RawChannel:
    """A channel with no sequencing or crypto at all: wire duplicates
    decrypt fine, so only the client's correlation-id dedup stands
    between a replayed response and the wrong waiter."""

    def __init__(self):
        self.records_protected = 0

    def protect(self, payload: bytes) -> bytes:
        self.records_protected += 1
        return payload

    def unprotect(self, record: bytes) -> bytes:
        return record


def make_rpc(handler, fault_injector=None, retry_policy=None, sequenced=True):
    clock = SimClock()
    net = Network(fault_injector=fault_injector)
    client_ep = net.endpoint("client", clock)
    server_ep = net.endpoint("server", clock)
    if sequenced:
        client_chan, server_chan = plain_channel_pair(clock, b"rpc-hardening")
    else:
        client_chan, server_chan = _RawChannel(), _RawChannel()
    server = RpcServer(server_ep, server_chan, handler)
    net.set_reactor("server", server)
    client = RpcClient(
        client_ep, client_chan, "server", clock=clock, retry_policy=retry_policy,
    )
    return client, server, net


def put_request(payload: bytes = b"sealed") -> PutRequest:
    return PutRequest(
        tag=TAG, challenge=b"r" * 16, wrapped_key=b"k" * 32,
        sealed_result=payload, app_id="app",
    )


class TestRetry:
    def test_retry_succeeds_after_single_drop(self):
        client, server, _ = make_rpc(
            lambda msg: GetResponse(found=False),
            fault_injector=FaultInjector(drop_indices={("client", "server", 0)}),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        response = client.call(GetRequest(tag=TAG))
        assert response == GetResponse(found=False)
        assert client.retries == 1
        assert client.backoff_seconds_total > 0
        assert server.requests_served == 1  # first copy never arrived

    def test_exhausted_retries_raise_retry_exhausted(self):
        injector = FaultInjector()
        injector.kill("server")
        client, _, _ = make_rpc(
            lambda msg: GetResponse(found=False),
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=3),
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            client.call(GetRequest(tag=TAG))
        assert client.retries == 2
        # RetryExhaustedError IS a TransportError: router failover code
        # that catches TransportError needs no special case.
        assert isinstance(excinfo.value, TransportError)

    def test_no_policy_keeps_fail_fast_behaviour(self):
        injector = FaultInjector()
        injector.kill("server")
        client, _, _ = make_rpc(lambda msg: GetResponse(found=False),
                                fault_injector=injector)
        with pytest.raises(TransportError):
            client.call(GetRequest(tag=TAG))
        assert client.retries == 0

    def test_backoff_is_deterministic(self):
        def build_and_fail():
            injector = FaultInjector()
            injector.kill("server")
            client, _, _ = make_rpc(
                lambda msg: GetResponse(found=False),
                fault_injector=injector,
                retry_policy=RetryPolicy(max_attempts=4),
            )
            with pytest.raises(RetryExhaustedError):
                client.call(GetRequest(tag=TAG))
            return client.backoff_seconds_total

        assert build_and_fail() == build_and_fail()

    def test_protocol_errors_not_retried_by_default(self):
        calls = []

        def handler(msg):
            calls.append(msg)
            raise RuntimeError("boom")

        client, _, _ = make_rpc(handler, retry_policy=RetryPolicy(max_attempts=3))
        with pytest.raises(ProtocolError):
            client.call(GetRequest(tag=TAG))
        assert len(calls) == 1

    def test_protocol_errors_retried_when_opted_in(self):
        calls = []

        def handler(msg):
            calls.append(msg)
            if len(calls) < 2:
                raise RuntimeError("transient")
            return GetResponse(found=False)

        client, _, _ = make_rpc(
            handler,
            retry_policy=RetryPolicy(max_attempts=3, retry_protocol_errors=True),
        )
        assert client.call(GetRequest(tag=TAG)) == GetResponse(found=False)
        assert len(calls) == 2


class TestIdempotentPutRetry:
    def test_retried_put_reuses_correlation_id(self):
        seen_ids = []

        def handler(msg):
            seen_ids.append(msg.request_id)
            return PutResponse(accepted=True, reason="stored")

        # Drop the first response: the request lands twice server-side,
        # both under the SAME id — the store's duplicate check makes the
        # second a no-op "already stored".
        client, server, _ = make_rpc(
            handler,
            fault_injector=FaultInjector(drop_indices={("server", "client", 0)}),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        response = client.call(put_request())
        assert isinstance(response, PutResponse) and response.accepted
        assert server.requests_served == 2
        assert len(set(seen_ids)) == 1  # one correlation id, both copies


class TestDuplicatedAndReorderedResponses:
    def test_wire_duplicated_response_rejected_by_sequenced_channel(self):
        # Duplicate the response record on the wire: the channel's
        # sequence check rejects the replay; the call itself succeeds.
        client, _, _ = make_rpc(
            lambda msg: GetResponse(found=False),
            fault_injector=FaultInjector(plan=_DuplicateResponses()),
        )
        assert client.call(GetRequest(tag=TAG)) == GetResponse(found=False)
        drained = client.drain_responses()
        assert drained == []
        assert client.records_rejected == 1

    def test_duplicate_id_dropped_on_unsequenced_channel(self):
        # Without channel sequencing the duplicate record decrypts fine —
        # the id-level dedup must still stop it from reaching anyone.
        client, _, _ = make_rpc(
            lambda msg: GetResponse(found=False),
            fault_injector=FaultInjector(plan=_DuplicateResponses()),
            sequenced=False,
        )
        assert client.call(GetRequest(tag=TAG)) == GetResponse(found=False)
        assert client.drain_responses() == []
        assert client.duplicates_dropped == 1

    def test_replayed_id_never_delivered_to_next_waiter(self):
        # A stale duplicate of call #1's response must not satisfy call #2.
        client, _, _ = make_rpc(
            _tag_echo_handler,
            fault_injector=FaultInjector(
                plan=_DuplicateResponses(), drop_indices={("client", "server", 1)},
            ),
            sequenced=False,
        )
        first = client.call(GetRequest(tag=b"\xaa" * 32))
        assert first.sealed_result == b"\xaa" * 32
        # Call 2's request is dropped; the only inbox traffic a waiter
        # could mistakenly consume would be a replay of response #1.
        with pytest.raises(TransportError):
            client.call(GetRequest(tag=b"\xbb" * 32))

    def test_reordered_oneway_responses_matched_by_id(self):
        client, _, _ = make_rpc(
            lambda msg: PutResponse(accepted=True),
            fault_injector=FaultInjector(plan=_DelaySecondResponse()),
            sequenced=False,
        )
        id_a = client.send_oneway(put_request(b"a"))
        id_b = client.send_oneway(put_request(b"b"))
        client._endpoint.network.flush_delayed()
        drained = client.drain_responses()
        assert sorted(r.request_id for r in drained) == sorted([id_a, id_b])

    def test_drain_responses_hands_out_each_id_once(self):
        client, _, _ = make_rpc(
            lambda msg: PutResponse(accepted=True),
            fault_injector=FaultInjector(plan=_DuplicateResponses()),
            sequenced=False,
        )
        request_id = client.send_oneway(put_request())
        drained = client.drain_responses()
        assert [r.request_id for r in drained] == [request_id]
        assert client.drain_responses() == []
        assert client.duplicates_dropped == 1


def _tag_echo_handler(msg):
    return GetResponse(found=True, challenge=b"", wrapped_key=b"",
                       sealed_result=msg.tag)


class _DuplicateResponses:
    """Plan hook: duplicate every server->client message."""

    def decide(self, source, dest, index, size):
        from repro.net.transport import DELIVER, FaultDecision
        if source == "server":
            return FaultDecision(duplicate=1)
        return DELIVER


class _DelaySecondResponse:
    """Plan hook: hold the second server->client message back."""

    def decide(self, source, dest, index, size):
        from repro.net.transport import DELIVER, FaultDecision
        if source == "server" and index == 1:
            return FaultDecision(delay=5)
        return DELIVER
