"""Correlation ids and batch messages on the RPC layer."""

import pytest

from repro.errors import ProtocolError
from repro.net.framing import FieldWriter
from repro.net.messages import (
    MAX_BATCH_ITEMS,
    BatchGetRequest,
    BatchGetResponse,
    BatchPutRequest,
    BatchPutResponse,
    ErrorMessage,
    GetRequest,
    GetResponse,
    MessageType,
    PutRequest,
    PutResponse,
    decode_message,
    encode_message,
)
from tests.net.test_rpc import make_rpc


def make_put(i: int = 0) -> PutRequest:
    return PutRequest(tag=bytes([i]) * 32, challenge=b"r" * 32,
                      wrapped_key=b"k" * 16, sealed_result=b"blob%d" % i)


class TestCorrelation:
    def test_call_skips_stale_oneway_response(self):
        """Regression: a PutResponse to an earlier async PUT must not be
        delivered as the reply to the next synchronous GET."""

        def handler(msg):
            if isinstance(msg, PutRequest):
                return PutResponse(accepted=True)
            return GetResponse(found=False)

        client, _ = make_rpc(handler)
        client.send_oneway(make_put())  # its reply now sits in the inbox
        response = client.call(GetRequest(tag=b"t" * 32))
        assert isinstance(response, GetResponse)
        # The stale reply is still available, off the critical path.
        assert client.drain_responses() == [PutResponse(accepted=True)]

    def test_server_echoes_request_id(self):
        client, _ = make_rpc(lambda msg: GetResponse(found=False))
        first = client.call(GetRequest(tag=b"a" * 32))
        second = client.call(GetRequest(tag=b"b" * 32))
        assert first.request_id != 0
        assert second.request_id == first.request_id + 1

    def test_error_for_oneway_does_not_break_next_call(self):
        """An ErrorMessage correlated to a one-way send must be buffered,
        not raised inside an unrelated synchronous call."""

        def handler(msg):
            if isinstance(msg, PutRequest):
                raise RuntimeError("put rejected late")
            return GetResponse(found=False)

        client, _ = make_rpc(handler)
        client.send_oneway(make_put())
        assert client.call(GetRequest(tag=b"t" * 32)) == GetResponse(found=False)
        (stray,) = client.drain_responses()
        assert isinstance(stray, ErrorMessage)

    def test_send_oneway_returns_correlation_id(self):
        client, _ = make_rpc(lambda msg: PutResponse(accepted=True))
        rid = client.send_oneway(make_put())
        (response,) = client.drain_responses()
        assert response.request_id == rid


class TestCallBatch:
    def test_batch_get_roundtrip(self):
        tags = []

        def handler(msg):
            assert isinstance(msg, BatchGetRequest)
            tags.extend(item.tag for item in msg.items)
            return BatchGetResponse(
                items=tuple(GetResponse(found=i % 2 == 0)
                            for i in range(len(msg.items)))
            )

        client, server = make_rpc(handler)
        requests = [GetRequest(tag=bytes([i]) * 32) for i in range(5)]
        responses = client.call_batch(requests)
        assert [r.found for r in responses] == [True, False, True, False, True]
        assert tags == [r.tag for r in requests]
        assert server.requests_served == 1  # one record for the whole batch

    def test_batch_put_roundtrip(self):
        def handler(msg):
            assert isinstance(msg, BatchPutRequest)
            return BatchPutResponse(
                items=tuple(PutResponse(accepted=True) for _ in msg.items)
            )

        client, _ = make_rpc(handler)
        responses = client.call_batch([make_put(i) for i in range(3)])
        assert responses == [PutResponse(accepted=True)] * 3

    def test_empty_batch_is_local_noop(self):
        client, server = make_rpc(lambda msg: GetResponse(found=False))
        assert client.call_batch([]) == []
        assert server.requests_served == 0

    def test_mixed_batch_rejected(self):
        client, _ = make_rpc(lambda msg: GetResponse(found=False))
        with pytest.raises(ProtocolError, match="uniform"):
            client.call_batch([GetRequest(tag=b"t" * 32), make_put()])

    def test_item_count_mismatch_rejected(self):
        def handler(msg):
            return BatchGetResponse(items=(GetResponse(found=False),))

        client, _ = make_rpc(handler)
        with pytest.raises(ProtocolError, match="items"):
            client.call_batch([GetRequest(tag=bytes([i]) * 32) for i in range(2)])

    def test_send_oneway_batch_single_record(self):
        def handler(msg):
            return BatchPutResponse(
                items=tuple(PutResponse(accepted=True) for _ in msg.items)
            )

        client, server = make_rpc(handler)
        before = client.records_sent
        rid = client.send_oneway_batch([make_put(i) for i in range(4)])
        assert client.records_sent == before + 1
        assert server.requests_served == 1
        (response,) = client.drain_responses()
        assert response.request_id == rid
        assert len(response.items) == 4

    def test_a_group_of_one_is_its_plain_message(self):
        """``call_batch([x])`` and ``send_oneway_batch([x])`` put ``x``
        itself on the wire, never a BATCH of one."""
        seen = []

        def handler(msg):
            seen.append(type(msg))
            if isinstance(msg, GetRequest):
                return GetResponse(found=False)
            return PutResponse(accepted=True)

        client, _ = make_rpc(handler)
        get = GetRequest(tag=b"\x01" * 32)
        assert client.call_batch([get]) == [GetResponse(found=False)]
        assert client.call_batch([make_put()]) == [PutResponse(accepted=True)]
        rid = client.send_oneway_batch([make_put(1)])
        (response,) = client.drain_responses()
        assert response == PutResponse(accepted=True, request_id=rid)
        assert seen == [GetRequest, PutRequest, PutRequest]


class TestBatchWireFormat:
    def test_batch_messages_roundtrip(self):
        for msg in (
            BatchGetRequest(items=(GetRequest(tag=b"t" * 32, app_id="a"),)),
            BatchGetResponse(items=(GetResponse(found=True, challenge=b"r",
                                                wrapped_key=b"k",
                                                sealed_result=b"s"),)),
            BatchPutRequest(items=(make_put(1), make_put(2))),
            BatchPutResponse(items=(PutResponse(accepted=False, reason="no"),)),
        ):
            assert decode_message(encode_message(msg)) == msg

    def test_request_id_survives_the_wire(self):
        msg = BatchGetRequest(items=(GetRequest(tag=b"t" * 32),), request_id=77)
        decoded = decode_message(encode_message(msg))
        assert decoded.request_id == 77

    def test_absurd_item_count_rejected(self):
        w = FieldWriter()
        w.u8(int(MessageType.BATCH_GET_REQUEST))
        w.u64(0)
        w.u32(MAX_BATCH_ITEMS + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_message(w.getvalue())
