"""Wire messages: exhaustive roundtrips and protocol violations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, SerializationError
from repro.net.messages import (
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

EXAMPLES = [
    GetRequest(tag=b"\x01" * 32, app_id="scanner"),
    GetRequest(tag=b"", app_id=""),
    GetResponse(found=False),
    GetResponse(found=False, reason="no live owner"),
    GetResponse(found=True, challenge=b"r" * 32, wrapped_key=b"k" * 16,
                sealed_result=b"ciphertext"),
    PutRequest(tag=b"\x02" * 32, challenge=b"r" * 32, wrapped_key=b"k" * 16,
               sealed_result=b"x" * 100, app_id="app"),
    PutResponse(accepted=True),
    PutResponse(accepted=False, reason="quota exceeded"),
    PutResponse(accepted=True, request_id=2**64 - 1),
    ErrorMessage(code=500, detail="boom"),
    BatchGetRequest(items=(GetRequest(tag=b"\x03" * 32, app_id="a"), GetRequest(tag=b""))),
    BatchGetResponse(items=(GetResponse(found=False, reason="no live owner"),
                            GetResponse(found=True, challenge=b"r", wrapped_key=b"k",
                                        sealed_result=b"s"))),
    BatchPutRequest(items=(PutRequest(tag=b"\x04" * 32, challenge=b"r" * 32,
                                      wrapped_key=b"k" * 16, sealed_result=b"y" * 7,
                                      app_id="b"),)),
    BatchPutResponse(items=(PutResponse(accepted=True),
                            PutResponse(accepted=False, reason="no"))),
    BatchGetRequest(items=()),
]


class TestRoundtrip:
    def test_examples_cover_every_message_type(self):
        assert {msg.TYPE for msg in EXAMPLES} == set(MessageType)

    @pytest.mark.parametrize("msg", EXAMPLES, ids=lambda m: type(m).__name__)
    def test_encode_decode(self, msg):
        assert decode_message(encode_message(msg)) == msg

    @given(st.binary(max_size=64), st.text(max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_get_request_any_payload(self, tag, app_id):
        msg = GetRequest(tag=tag, app_id=app_id)
        assert decode_message(encode_message(msg)) == msg


class TestViolations:
    def test_unknown_type_byte(self):
        with pytest.raises(ProtocolError):
            decode_message(b"\xfa\x00\x00")

    @pytest.mark.parametrize("type_byte", [5, 6])
    def test_retired_type_bytes_are_unknown(self, type_byte):
        # SYNC_REQUEST / SYNC_RESPONSE are gone; their numbers stay unused.
        assert type_byte not in set(MessageType)
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_message(bytes([type_byte]) + bytes(8) + bytes(4))

    def test_empty_message(self):
        with pytest.raises(SerializationError):
            decode_message(b"")

    def test_trailing_garbage_rejected(self):
        data = encode_message(PutResponse(accepted=True)) + b"extra"
        with pytest.raises(SerializationError, match="trailing"):
            decode_message(data)

    def test_truncated_body_rejected(self):
        data = encode_message(EXAMPLES[3])[:-3]
        with pytest.raises(SerializationError, match="truncated"):
            decode_message(data)

    def test_bad_boolean_and_bad_utf8_rejected(self):
        frame = bytearray(encode_message(PutResponse(accepted=True, reason="ok")))
        frame[9] = 2  # the ``accepted`` byte, right after the 9-byte header
        with pytest.raises(SerializationError, match="boolean") as bad_bool:
            decode_message(bytes(frame))
        frame[9] = 1
        frame[-1] = 0xFF  # the last byte of ``reason``
        with pytest.raises(SerializationError, match="UTF-8") as bad_text:
            decode_message(bytes(frame))
        assert bad_bool.value.code == bad_text.value.code == "serialization_error"
