"""Streaming compression: the ``deflate``/``inflate`` stream API.

zlib's real interface is incremental (``deflate()`` is fed chunks and
flushed); the paper's Case 2 wrapper normalises it to one-shot calls
(Fig. 4's note about wrapper functions).  This module provides the
incremental form for completeness: a :class:`DeflateStream` accepts
chunks and emits an independent container *member* per flush, and
:func:`inflate_stream` reassembles the original byte stream from the
concatenated members.

Members are framed with a length prefix so the decoder needs no
look-ahead; each member is a full :func:`repro.apps.compress.deflate`
blob and inherits its CRC-32 protection.
"""

from __future__ import annotations

from .deflate import deflate, inflate
from ...errors import SpeedError

_MEMBER_MAGIC = b"SPDM"
DEFAULT_CHUNK = 64 * 1024


class DeflateStream:
    """Incremental compressor; not thread-safe, single use."""

    def __init__(self, chunk_size: int = DEFAULT_CHUNK):
        if chunk_size <= 0:
            raise SpeedError("chunk_size must be positive")
        self._chunk_size = chunk_size
        self._buffer = bytearray()
        self._finished = False
        self.members_emitted = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def _emit(self, data: bytes) -> bytes:
        blob = deflate(data)
        self.members_emitted += 1
        self.bytes_out += len(blob) + 12
        return _MEMBER_MAGIC + len(blob).to_bytes(8, "big") + blob

    def write(self, chunk: bytes) -> bytes:
        """Feed input; returns any compressed members ready so far."""
        if self._finished:
            raise SpeedError("stream already finished")
        self._buffer.extend(chunk)
        self.bytes_in += len(chunk)
        out = bytearray()
        while len(self._buffer) >= self._chunk_size:
            piece = bytes(self._buffer[:self._chunk_size])
            del self._buffer[:self._chunk_size]
            out += self._emit(piece)
        return bytes(out)

    def finish(self) -> bytes:
        """Flush the trailing partial chunk and close the stream."""
        if self._finished:
            raise SpeedError("stream already finished")
        self._finished = True
        if not self._buffer and self.members_emitted:
            return b""
        piece = bytes(self._buffer)
        self._buffer.clear()
        return self._emit(piece)


def inflate_stream(blob: bytes) -> bytes:
    """Decode a concatenation of stream members back to the input."""
    out = bytearray()
    offset = 0
    while offset < len(blob):
        if blob[offset:offset + 4] != _MEMBER_MAGIC:
            raise SpeedError(f"bad stream member magic at offset {offset}")
        if offset + 12 > len(blob):
            raise SpeedError("truncated stream member header")
        member_len = int.from_bytes(blob[offset + 4:offset + 12], "big")
        start = offset + 12
        end = start + member_len
        if end > len(blob):
            raise SpeedError("truncated stream member body")
        out += inflate(blob[start:end])
        offset = end
    return bytes(out)
