"""Streaming compression API."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.compress.stream import DEFAULT_CHUNK, DeflateStream, inflate_stream
from repro.errors import SpeedError
from repro.workloads import synthetic_text


def deflate_stream(data: bytes, chunk_size: int = DEFAULT_CHUNK) -> bytes:
    """``data`` through one stream: one write, then the finish."""
    stream = DeflateStream(chunk_size)
    return stream.write(data) + stream.finish()


class TestStream:
    def test_one_shot_roundtrip(self):
        data = synthetic_text(50_000, seed=1)
        assert inflate_stream(deflate_stream(data, chunk_size=8192)) == data

    def test_empty_input(self):
        assert inflate_stream(deflate_stream(b"")) == b""

    @given(
        st.binary(max_size=5000),
        st.integers(min_value=1, max_value=700),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_any_chunking(self, data, chunk_size):
        assert inflate_stream(deflate_stream(data, chunk_size)) == data

    def test_incremental_writes_equal_one_shot(self):
        data = synthetic_text(10_000, seed=2)
        stream = DeflateStream(chunk_size=1024)
        pieces = []
        for offset in range(0, len(data), 333):
            pieces.append(stream.write(data[offset:offset + 333]))
        pieces.append(stream.finish())
        assert b"".join(pieces) == deflate_stream(data, chunk_size=1024)

    def test_member_count(self):
        stream = DeflateStream(chunk_size=100)
        stream.write(b"x" * 250)
        stream.finish()
        assert stream.members_emitted == 3  # 100 + 100 + 50

    def test_write_after_finish_rejected(self):
        stream = DeflateStream()
        stream.finish()
        with pytest.raises(SpeedError):
            stream.write(b"late")
        with pytest.raises(SpeedError):
            stream.finish()

    def test_bad_chunk_size(self):
        with pytest.raises(SpeedError):
            DeflateStream(chunk_size=0)

    def test_corrupt_member_magic(self):
        blob = bytearray(deflate_stream(b"payload" * 100, chunk_size=128))
        blob[0] ^= 0xFF
        with pytest.raises(SpeedError, match="magic"):
            inflate_stream(bytes(blob))

    def test_truncated_member(self):
        blob = deflate_stream(b"payload" * 100, chunk_size=128)
        with pytest.raises(SpeedError, match="truncated"):
            inflate_stream(blob[:-5])

    def test_accounting(self):
        stream = DeflateStream(chunk_size=1000)
        stream.write(synthetic_text(2500, seed=3))
        stream.finish()
        assert stream.bytes_in == 2500
        assert stream.bytes_out > 0
