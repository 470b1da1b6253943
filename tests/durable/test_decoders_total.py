"""Every store-side decoder is total: bad bytes end in a coded error.

The WAL segment, the checkpoint, the store image (snapshot or checkpoint
body) and the shipped hand-off tuple are all read back from memory the
untrusted host controls.  Whatever it presents — arbitrary bytes, or a
valid encoding with one byte changed or cut short — a decoder either
decodes cleanly or raises a coded :class:`~repro.errors.SpeedError`;
never ``KeyError``, ``ValueError``, ``UnicodeDecodeError`` or the like.
(The store-side half of ROADMAP 4(b)'s "every decoder total".)
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable.checkpoint import (
    decode_checkpoint,
    decode_image,
    take_checkpoint,
)
from repro.durable.wal import (
    REC_MIGRATE_BEGIN,
    REC_MIGRATE_COMMIT,
    REC_MIGRATE_END,
    decode_segment,
)
from repro.errors import SpeedError
from repro.net.messages import GetRequest
from repro.store.sync import _decode_entries, _encode_entries

from .conftest import durable_deployment, put


@functools.cache
def valid_encodings() -> dict:
    """One valid plaintext per decoder, written by the real encoders: a
    segment holding every record kind, a checkpoint, its image, and a
    shipped batch."""
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
        segments = [store.enclave.unseal(s.sealed) for s in store.durable.segments]
        shipped = _encode_entries(store.collect_entries(lambda entry: True))
        checkpoint = store.enclave.unseal(take_checkpoint(store).sealed)
    kinds = {r.kind for s in segments for r in decode_segment(s)[2]}
    assert kinds == {1, 2, 3, 4, 5, 6}
    segment = max(segments, key=len)
    image = decode_checkpoint(checkpoint)[3]
    assert len(decode_image(image)) == 3 and len(_decode_entries(shipped)) == 3
    return {
        "segment": (decode_segment, segment),
        "checkpoint": (decode_checkpoint, checkpoint),
        "image": (decode_image, image),
        "shipped": (_decode_entries, shipped),
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
@settings(max_examples=600, deadline=None)
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
