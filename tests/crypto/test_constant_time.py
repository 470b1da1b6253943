"""Constant-time helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.constant_time import bytes_eq


class TestBytesEq:
    @given(st.binary(max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_reflexive(self, data):
        assert bytes_eq(data, data)

    @given(st.binary(min_size=1, max_size=64), st.integers(0, 63))
    @settings(max_examples=40, deadline=None)
    def test_single_flip_detected(self, data, position):
        position %= len(data)
        flipped = bytearray(data)
        flipped[position] ^= 0x01
        assert not bytes_eq(data, bytes(flipped))

    def test_length_mismatch(self):
        assert not bytes_eq(b"abc", b"abcd")

    def test_accepts_bytearray(self):
        assert bytes_eq(bytearray(b"xy"), b"xy")

    def test_rejects_strings(self):
        with pytest.raises(TypeError):
            bytes_eq("abc", b"abc")

