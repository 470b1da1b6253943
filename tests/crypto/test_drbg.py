"""HMAC-DRBG: determinism, independence, bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.errors import CryptoError


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = HmacDrbg(b"seed").generate(64)
        b = HmacDrbg(b"seed").generate(64)
        assert a == b

    def test_different_seeds_differ(self):
        assert HmacDrbg(b"seed-a").generate(32) != HmacDrbg(b"seed-b").generate(32)

    def test_personalization_differs(self):
        assert (
            HmacDrbg(b"s", b"app-1").generate(32) != HmacDrbg(b"s", b"app-2").generate(32)
        )

    def test_stream_position_matters(self):
        d = HmacDrbg(b"seed")
        assert d.generate(32) != d.generate(32)

    def test_split_requests_match_stream_prefix(self):
        # Each generate() call re-keys, so two 16-byte requests differ from
        # one 32-byte request — but both must be reproducible.
        d1, d2 = HmacDrbg(b"s"), HmacDrbg(b"s")
        assert d1.generate(16) + d1.generate(16) == d2.generate(16) + d2.generate(16)


class TestForking:
    def test_fork_is_deterministic(self):
        a = HmacDrbg(b"seed").fork(b"child").generate(32)
        b = HmacDrbg(b"seed").fork(b"child").generate(32)
        assert a == b

    def test_fork_labels_independent(self):
        parent = HmacDrbg(b"seed")
        c1 = parent.fork(b"one")
        c2 = parent.fork(b"two")
        assert c1.generate(32) != c2.generate(32)


class TestBounds:
    def test_rejects_empty_seed(self):
        with pytest.raises(CryptoError):
            HmacDrbg(b"")

    def test_rejects_negative(self):
        with pytest.raises(CryptoError):
            HmacDrbg(b"s").generate(-1)

    def test_rejects_oversized_request(self):
        with pytest.raises(CryptoError):
            HmacDrbg(b"s").generate(HmacDrbg.MAX_REQUEST + 1)

    def test_zero_bytes(self):
        assert HmacDrbg(b"s").generate(0) == b""

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=50, deadline=None)
    def test_randint_below_in_range(self, bound):
        assert 0 <= HmacDrbg(b"s").randint_below(bound) < bound

    def test_randint_rejects_nonpositive(self):
        with pytest.raises(CryptoError):
            HmacDrbg(b"s").randint_below(0)


class TestKnownAnswer:
    def test_output_bytes_are_pinned(self):
        # Instantiate with personalization, generate, mix in entropy (SP
        # 800-90A's update, what a reseed does), generate,
        # fork, then keep drawing from the parent: every byte of the
        # stream is pinned, so an implementation change that reorders or
        # re-keys anything fails here.
        d = HmacDrbg(b"kat-seed", personalization=b"kat/personalization")
        assert d.generate(40).hex() == (
            "e63ccd82c180c26f1bcfe84e0d4cc20a16301648c25372e2e9b36e5d58a6b7a4182e1c55472f380c"
        )
        d._update(b"kat-entropy")
        assert d.generate(33).hex() == (
            "599505404905263bde710a5ce08675e77256e2db495630df82f25c4e0dd3ebb216"
        )
        assert d.fork(b"kat/child").generate(24).hex() == (
            "4abacfb6c227359bb7bfe181f2e8995ada8a41e79f419bcb"
        )
        assert d.generate(16).hex() == "615d75295b4f49bb35a559882a00f8dc"
