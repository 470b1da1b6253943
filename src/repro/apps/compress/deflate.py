"""The DEFLATE-style container: Huffman-coded LZ77 token stream.

This is the ``deflate(·)`` / ``inflate(·)`` pair standing in for zlib
1.2.11 in the paper's Case 2.  The symbol structure mirrors RFC 1951:
literals 0-255, end-of-block 256, length codes 257-284 with extra bits,
and a separate 30-symbol distance alphabet with extra bits.  The header
carries both canonical code-length tables.
"""

from __future__ import annotations

from .bitio import BitReader, BitWriter
from .crc32 import crc32
from .huffman import (
    HuffmanDecoder,
    HuffmanEncoder,
    code_lengths_from_frequencies,
    read_lengths_header,
    write_lengths_header,
)
from .lz77 import MAX_MATCH, MIN_MATCH, tokenize
from ...errors import SpeedError

LIBRARY_FAMILY = "zlib"
LIBRARY_VERSION = "1.2.11"
FUNCTION_SIGNATURE = "bytes deflate(bytes data)"

_MAGIC = b"SPDZ"
END_OF_BLOCK = 256
LITLEN_ALPHABET = 285
DIST_ALPHABET = 30

# RFC 1951 length code table: (base length, extra bits) for codes 257..284.
_LENGTH_BASE = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
    35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227,
]
_LENGTH_EXTRA = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
    3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5,
]
# RFC 1951 distance code table: (base distance, extra bits) for codes 0..29.
_DIST_BASE = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
    257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145,
    8193, 12289, 16385, 24577,
]
_DIST_EXTRA = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
    7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
]


def _length_code(length: int) -> tuple[int, int, int]:
    """(symbol, extra bits, extra value) for a match length."""
    if not MIN_MATCH <= length <= MAX_MATCH:
        raise SpeedError(f"match length {length} out of range")
    if length == MAX_MATCH:
        return 284, 5, length - _LENGTH_BASE[-1]
    for i in range(len(_LENGTH_BASE) - 1, -1, -1):
        if length >= _LENGTH_BASE[i]:
            return 257 + i, _LENGTH_EXTRA[i], length - _LENGTH_BASE[i]
    raise SpeedError("unreachable")


def _distance_code(distance: int) -> tuple[int, int, int]:
    """(symbol, extra bits, extra value) for a match distance."""
    for i in range(len(_DIST_BASE) - 1, -1, -1):
        if distance >= _DIST_BASE[i]:
            return i, _DIST_EXTRA[i], distance - _DIST_BASE[i]
    raise SpeedError(f"distance {distance} out of range")


def deflate(data: bytes) -> bytes:
    """Compress ``data``; deterministic for identical inputs."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SpeedError("deflate expects bytes")
    data = bytes(data)
    tokens = tokenize(data)

    litlen_freq: dict[int, int] = {END_OF_BLOCK: 1}
    dist_freq: dict[int, int] = {}
    for token in tokens:
        if token.is_match:
            symbol, _, _ = _length_code(token.length)
            litlen_freq[symbol] = litlen_freq.get(symbol, 0) + 1
            dsym, _, _ = _distance_code(token.distance)
            dist_freq[dsym] = dist_freq.get(dsym, 0) + 1
        else:
            litlen_freq[token.literal] = litlen_freq.get(token.literal, 0) + 1

    litlen_lengths = code_lengths_from_frequencies(litlen_freq)
    dist_lengths = code_lengths_from_frequencies(dist_freq)
    litlen_enc = HuffmanEncoder(litlen_lengths)
    dist_enc = HuffmanEncoder(dist_lengths) if dist_lengths else None

    writer = BitWriter()
    write_lengths_header(writer, litlen_lengths, LITLEN_ALPHABET)
    write_lengths_header(writer, dist_lengths, DIST_ALPHABET)
    for token in tokens:
        if token.is_match:
            symbol, extra_bits, extra = _length_code(token.length)
            litlen_enc.write_symbol(writer, symbol)
            if extra_bits:
                writer.write(extra, extra_bits)
            dsym, dextra_bits, dextra = _distance_code(token.distance)
            dist_enc.write_symbol(writer, dsym)
            if dextra_bits:
                writer.write(dextra, dextra_bits)
        else:
            litlen_enc.write_symbol(writer, token.literal)
    litlen_enc.write_symbol(writer, END_OF_BLOCK)

    body = writer.getvalue()
    header = _MAGIC + len(data).to_bytes(8, "big") + crc32(data).to_bytes(4, "big")
    return header + body


def inflate(blob: bytes) -> bytes:
    """Decompress a :func:`deflate` blob; raises on any corruption."""
    if len(blob) < 16 or blob[:4] != _MAGIC:
        raise SpeedError("not a SPEED-deflate blob")
    expected_len = int.from_bytes(blob[4:12], "big")
    expected_crc = int.from_bytes(blob[12:16], "big")
    reader = BitReader(blob[16:])
    litlen_lengths = read_lengths_header(reader, LITLEN_ALPHABET)
    dist_lengths = read_lengths_header(reader, DIST_ALPHABET)
    if not litlen_lengths:
        raise SpeedError("missing literal/length table")
    litlen_dec = HuffmanDecoder(litlen_lengths)
    dist_dec = HuffmanDecoder(dist_lengths) if dist_lengths else None

    out = bytearray()
    while True:
        symbol = litlen_dec.read_symbol(reader)
        if symbol == END_OF_BLOCK:
            break
        if symbol < 256:
            out.append(symbol)
            continue
        index = symbol - 257
        if index >= len(_LENGTH_BASE):
            raise SpeedError(f"invalid length symbol {symbol}")
        length = _LENGTH_BASE[index] + (
            reader.read(_LENGTH_EXTRA[index]) if _LENGTH_EXTRA[index] else 0
        )
        if dist_dec is None:
            raise SpeedError("match token but no distance table")
        dsym = dist_dec.read_symbol(reader)
        distance = _DIST_BASE[dsym] + (
            reader.read(_DIST_EXTRA[dsym]) if _DIST_EXTRA[dsym] else 0
        )
        if distance > len(out):
            raise SpeedError("back-reference before start of output")
        start = len(out) - distance
        for k in range(length):
            out.append(out[start + k])
    if len(out) != expected_len:
        raise SpeedError(
            f"inflated length mismatch: got {len(out)}, header says {expected_len}"
        )
    if crc32(bytes(out)) != expected_crc:
        raise SpeedError("CRC-32 mismatch: decompressed data is corrupt")
    return bytes(out)


def compression_ratio(data: bytes) -> float:
    """Convenience metric for examples and workload reports."""
    if not data:
        return 1.0
    return len(deflate(data)) / len(data)
