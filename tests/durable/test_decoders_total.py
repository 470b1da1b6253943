"""Every decoder is total: bad bytes end in a coded error.

The WAL segment, the checkpoint, the store image (snapshot or checkpoint
body) and the shipped hand-off tuple are all read back from memory the
untrusted host controls, and every wire frame crosses it.  Whatever it
presents — arbitrary bytes, or a valid encoding with one byte changed or
cut short — a decoder either decodes cleanly or raises a coded
:class:`~repro.errors.SpeedError`; never ``KeyError``, ``ValueError``,
``UnicodeDecodeError`` or the like.  (ROADMAP 1(c)'s "every decoder
total": the wire frames are the first example of each message type in
``tests/net/test_messages.py``.)
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialization import (
    AnyParser,
    IntParser,
    ListParser,
    MappingParser,
    TupleParser,
    default_registry,
)
from repro.durable.checkpoint import (
    decode_checkpoint,
    decode_image,
    take_checkpoint,
)
from repro.durable.wal import (
    GENESIS_CHAIN,
    REC_MIGRATE_BEGIN,
    REC_MIGRATE_COMMIT,
    REC_MIGRATE_END,
    decode_segment,
    encode_segment,
)
from repro.errors import SpeedError
from repro.net.messages import GetRequest, decode_message, encode_message
from repro.store.sync import _decode_entries, _encode_entries

from .conftest import durable_deployment, put
from ..net.test_messages import EXAMPLES


@functools.cache
def valid_encodings() -> dict:
    """One valid plaintext per decoder, written by the real encoders: a
    segment holding every record kind (the logged records re-encoded as
    one), a checkpoint, its image, a shipped batch, one wire frame per
    message type, and result serializations: one ``AnyParser`` encoding
    per registered type and one tuple, list and mapping composite."""
    d, client = durable_deployment(
        b"decoders-total", capacity_entries=3, wal_group_commit=64,
        recency_log_interval=1,
    )
    store = d.store
    tags = [put(client, bytes([i])) for i in range(4)]       # PUTs + one eviction
    assert client.call(GetRequest(tag=tags[3])).found        # a TOUCH mark
    for kind in (REC_MIGRATE_BEGIN, REC_MIGRATE_COMMIT, REC_MIGRATE_END):
        store.note_migrate(kind, "plan/+s9/1", 5, 9, peer="+s9", role=1)
    with store.ecall("test-read"):
        segments = [store.durable.unseal(name) for name in store.durable.segment_names()]
        shipped = _encode_entries(store.collect_entries(lambda entry: True))
        take_checkpoint(store)
        checkpoint = store.durable.unseal(store.durable.checkpoint_name)
    segment = encode_segment(
        GENESIS_CHAIN, 1, [r for s in segments for r in decode_segment(s)[2]]
    )
    assert {r.kind for r in decode_segment(segment)[2]} == {1, 2, 3, 4, 5, 6}
    image = decode_checkpoint(checkpoint)[3]
    assert len(decode_image(image)) == 3 and len(_decode_entries(shipped)) == 3
    return {
        "segment": (decode_segment, segment),
        "checkpoint": (decode_checkpoint, checkpoint),
        "image": (decode_image, image),
        "shipped": (_decode_entries, shipped),
        **{
            f"wire/{type(msg).__name__}": (decode_message, encode_message(msg))
            for msg in reversed(EXAMPLES)  # the first example of a type wins
        },
        **serialization_encodings(),
    }


def serialization_encodings() -> dict:
    registry = default_registry()
    any_ = AnyParser(registry)
    values = {
        bytes: b"result bytes", str: "r\u00e9sultat", np.ndarray: np.array([1.5, 2.5]),
        int: -(2 ** 40) + 3, float: 2.5,
    }
    assert {t for t, _ in registry._by_type} - {bytearray, memoryview} == set(values)
    composites = {
        "tuple": (TupleParser(any_, IntParser()), (np.arange(6, dtype="<i4").reshape(2, 3), 7)),
        "list": (ListParser(any_), [b"a", "b", np.zeros(2, dtype=np.uint8)]),
        "mapping": (MappingParser(any_), {"x": 1.0, "y": np.array([[1 + 2j]])}),
    }
    return {
        **{f"result/any/{t.__name__}": (any_.decode, any_.encode(v)) for t, v in values.items()},
        **{f"result/{name}": (p.decode, p.encode(v)) for name, (p, v) in composites.items()},
    }


@st.composite
def hostile_payloads(draw):
    """(decoder, bytes): arbitrary bytes, or a valid encoding with one
    byte replaced or everything after some offset dropped."""
    decoder, valid = valid_encodings()[draw(st.sampled_from(sorted(valid_encodings())))]
    shape = draw(st.sampled_from(("arbitrary", "mutated", "truncated")))
    if shape == "arbitrary":
        return decoder, draw(st.binary(max_size=200))
    at = draw(st.integers(0, len(valid) - 1))
    if shape == "truncated":
        return decoder, valid[:at]
    return decoder, valid[:at] + bytes([draw(st.integers(0, 255))]) + valid[at + 1:]


@given(hostile_payloads())
@settings(max_examples=1000, deadline=None)
def test_decoders_decode_cleanly_or_raise_a_coded_error(case):
    decoder, payload = case
    try:
        decoder(payload)
    except SpeedError as exc:
        assert exc.code != SpeedError.code  # a specific code, not the base's


@pytest.mark.parametrize("name", ["segment", "checkpoint", "image", "shipped"])
def test_trailing_bytes_and_unwritten_versions_are_refused(name):
    decoder, valid = valid_encodings()[name]
    decoder(valid)
    with pytest.raises(SpeedError):
        decoder(valid + b"garbage")
    if name != "shipped":  # the three at-rest formats lead with a u32 version
        assert valid[:4] == (2).to_bytes(4, "big")
        with pytest.raises(SpeedError, match="version"):
            decoder((1).to_bytes(4, "big") + valid[4:])
