"""CTR mode: involution, keystream structure, counter arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES128
from repro.crypto.ctr import ctr_stream, _counter_blocks
from repro.errors import CryptoError

KEY = b"0123456789abcdef"
CTR0 = b"\x00" * 12 + (2).to_bytes(4, "big")


def ctr_transform(cipher: AES128, initial_counter: bytes, data: bytes) -> bytes:
    """``data`` XOR the counter run from ``initial_counter`` on."""
    return ctr_stream(cipher, initial_counter, data)[1]


class TestCtr:
    @given(st.binary(max_size=4096))
    @settings(max_examples=30, deadline=None)
    def test_involution(self, data):
        cipher = AES128(KEY)
        assert ctr_transform(cipher, CTR0, ctr_transform(cipher, CTR0, data)) == data

    def test_empty_input(self):
        assert ctr_transform(AES128(KEY), CTR0, b"") == b""

    def test_keystream_differs_per_block(self):
        zeros = b"\x00" * 64
        ks = ctr_transform(AES128(KEY), CTR0, zeros)
        blocks = [ks[i:i + 16] for i in range(0, 64, 16)]
        assert len(set(blocks)) == 4

    def test_partial_block(self):
        cipher = AES128(KEY)
        full = ctr_transform(cipher, CTR0, b"\x00" * 32)
        part = ctr_transform(cipher, CTR0, b"\x00" * 20)
        assert part == full[:20]

    def test_counter_wraps_at_32_bits(self):
        start = b"\x00" * 12 + (0xFFFFFFFF).to_bytes(4, "big")
        blocks = _counter_blocks(start, 2)
        assert blocks[0, 12:].tobytes() == b"\xff\xff\xff\xff"
        assert blocks[1, 12:].tobytes() == b"\x00\x00\x00\x00"
        assert blocks[1, :12].tobytes() == b"\x00" * 12

    def test_rejects_bad_counter_size(self):
        with pytest.raises(CryptoError):
            _counter_blocks(b"\x00" * 8, 1)
