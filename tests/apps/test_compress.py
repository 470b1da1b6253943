"""DEFLATE-style codec: roundtrips, compression, corruption handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.compress import (
    MAX_MATCH,
    MIN_MATCH,
    Token,
    deflate,
    inflate,
    tokenize,
)
from repro.errors import SpeedError
from repro.workloads import synthetic_text


def reconstruct(tokens: list[Token]) -> bytes:
    """The bytes an LZ77 token stream stands for: the oracle for :func:`tokenize`."""
    out = bytearray()
    for token in tokens:
        if token.is_match:
            start = len(out) - token.distance
            for k in range(token.length):
                out.append(out[start + k])
        else:
            out.append(token.literal)
    return bytes(out)


class TestLz77:
    @given(st.binary(max_size=2000))
    @settings(max_examples=50, deadline=None)
    def test_reconstruct_inverts_tokenize(self, data):
        assert reconstruct(tokenize(data)) == data

    def test_repetitive_data_produces_matches(self):
        tokens = tokenize(b"abcabcabcabcabcabc")
        assert any(t.is_match for t in tokens)

    def test_match_bounds(self):
        for token in tokenize(b"x" * 10000):
            if token.is_match:
                assert MIN_MATCH <= token.length <= MAX_MATCH
                assert token.distance >= 1

    def test_overlapping_match_semantics(self):
        # RLE-style: distance smaller than length.
        data = b"a" * 300
        assert reconstruct(tokenize(data)) == data

    def test_unique_bytes_all_literals(self):
        tokens = tokenize(bytes(range(200)))
        assert all(not t.is_match for t in tokens)


class TestDeflate:
    @pytest.mark.parametrize("data", [
        b"", b"a", b"ab", b"abc" * 500, bytes(range(256)) * 4,
        b"\x00" * 5000, "unicode snippet ✓".encode("utf-8") * 50,
    ])
    def test_roundtrip_cases(self, data):
        assert inflate(deflate(data)) == data

    @given(st.binary(max_size=4096))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, data):
        assert inflate(deflate(data)) == data

    def test_compresses_text(self):
        text = synthetic_text(32 * 1024, seed=1)
        assert len(deflate(text)) / len(text) < 0.6

    def test_deterministic(self):
        data = synthetic_text(4096, seed=2)
        assert deflate(data) == deflate(data)

    def test_rejects_non_bytes(self):
        with pytest.raises(SpeedError):
            deflate("a string")


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(SpeedError):
            inflate(b"JUNK" + b"\x00" * 20)

    def test_truncated_blob(self):
        blob = deflate(b"hello world, hello world, hello world")
        with pytest.raises(SpeedError):
            inflate(blob[: len(blob) // 2])

    def test_length_header_mismatch(self):
        blob = bytearray(deflate(b"data data data data"))
        blob[11] ^= 0x01  # corrupt the original-length header
        with pytest.raises(SpeedError):
            inflate(bytes(blob))

    def test_too_short(self):
        with pytest.raises(SpeedError):
            inflate(b"SPDZ")


class TestHuffman:
    def test_prefix_free(self):
        from repro.apps.compress import code_lengths_from_frequencies
        from repro.apps.compress.huffman import canonical_codes

        freqs = {i: (i + 1) ** 2 for i in range(40)}
        codes = canonical_codes(code_lengths_from_frequencies(freqs))
        as_strings = [format(c, f"0{l}b") for c, l in codes.values()]
        for a in as_strings:
            for b in as_strings:
                if a != b:
                    assert not b.startswith(a)

    def test_frequent_symbols_get_short_codes(self):
        from repro.apps.compress import code_lengths_from_frequencies

        lengths = code_lengths_from_frequencies({0: 1000, 1: 1})
        assert lengths[0] <= lengths[1]

    def test_single_symbol_alphabet(self):
        from repro.apps.compress import code_lengths_from_frequencies

        assert code_lengths_from_frequencies({7: 100}) == {7: 1}

    def test_kraft_inequality(self):
        from repro.apps.compress import code_lengths_from_frequencies

        lengths = code_lengths_from_frequencies({i: i + 1 for i in range(100)})
        assert sum(2.0 ** -l for l in lengths.values()) <= 1.0 + 1e-9

    def test_encoder_decoder_roundtrip(self):
        from repro.apps.compress import (
            HuffmanDecoder,
            HuffmanEncoder,
            code_lengths_from_frequencies,
        )
        from repro.apps.compress.bitio import BitReader, BitWriter

        lengths = code_lengths_from_frequencies({0: 5, 1: 3, 2: 10, 3: 1})
        enc, dec = HuffmanEncoder(lengths), HuffmanDecoder(lengths)
        writer = BitWriter()
        symbols = [2, 2, 0, 1, 3, 2, 0]
        for s in symbols:
            enc.write_symbol(writer, s)
        reader = BitReader(writer.getvalue())
        assert [dec.read_symbol(reader) for _ in symbols] == symbols


class TestBitIo:
    def test_roundtrip_mixed_widths(self):
        from repro.apps.compress.bitio import BitReader, BitWriter

        w = BitWriter()
        w.write(0b101, 3)
        w.write(0xABCD, 16)
        w.write(1, 1)
        r = BitReader(w.getvalue())
        assert r.read(3) == 0b101
        assert r.read(16) == 0xABCD
        assert r.read(1) == 1

    def test_overflow_rejected(self):
        from repro.apps.compress.bitio import BitWriter

        with pytest.raises(SpeedError):
            BitWriter().write(8, 3)

    def test_truncation_detected(self):
        from repro.apps.compress.bitio import BitReader

        with pytest.raises(SpeedError):
            BitReader(b"").read(1)
