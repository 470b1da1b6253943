"""Case study 2: data compression (zlib substitute).

From-scratch DEFLATE-style codec: hash-chain LZ77 (:mod:`.lz77`),
canonical Huffman (:mod:`.huffman`), bit I/O (:mod:`.bitio`), and the
``deflate``/``inflate`` container (:mod:`.deflate`).
"""

from .crc32 import crc32
from .deflate import (
    FUNCTION_SIGNATURE,
    LIBRARY_FAMILY,
    LIBRARY_VERSION,
    deflate,
    inflate,
)
from .huffman import HuffmanDecoder, HuffmanEncoder, code_lengths_from_frequencies
from .stream import DeflateStream, inflate_stream
from .lz77 import MAX_MATCH, MIN_MATCH, WINDOW_SIZE, Token, tokenize

__all__ = [
    "FUNCTION_SIGNATURE",
    "HuffmanDecoder",
    "HuffmanEncoder",
    "LIBRARY_FAMILY",
    "LIBRARY_VERSION",
    "MAX_MATCH",
    "MIN_MATCH",
    "Token",
    "WINDOW_SIZE",
    "code_lengths_from_frequencies",
    "crc32",
    "deflate",
    "DeflateStream",
    "inflate_stream",
    "inflate",
    "tokenize",
]
