"""Result-protection schemes: Algorithms 1 & 2 and their properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheme import (
    CHALLENGE_SIZE,
    KEY_SIZE,
    CrossAppScheme,
    SingleKeyScheme,
)
from repro.core.tag import derive_tag
from repro.crypto.drbg import HmacDrbg
from repro.errors import CryptoError, IntegrityError

FUNC = b"\x01" * 32
INPUT = b"the input data m"
RESULT = b"the computed result res"


def rand(seed=b"scheme-tests"):
    return HmacDrbg(seed).generate


def tag_for(func=FUNC, inp=INPUT):
    return derive_tag(func, inp)


class TestCrossAppScheme:
    def test_protect_recover_roundtrip(self):
        scheme = CrossAppScheme()
        tag = tag_for()
        protected = scheme.protect(FUNC, INPUT, tag, RESULT, rand())
        assert scheme.recover(FUNC, INPUT, tag, protected) == RESULT

    def test_cross_application_recovery(self):
        # App B (different randomness source, same func + input) recovers.
        scheme = CrossAppScheme()
        tag = tag_for()
        protected = scheme.protect(FUNC, INPUT, tag, RESULT, rand(b"app-a"))
        assert CrossAppScheme().recover(FUNC, INPUT, tag, protected) == RESULT

    def test_wrong_input_cannot_recover(self):
        scheme = CrossAppScheme()
        tag = tag_for()
        protected = scheme.protect(FUNC, INPUT, tag, RESULT, rand())
        with pytest.raises(IntegrityError):
            scheme.recover(FUNC, b"some other input", tag, protected)

    def test_wrong_function_cannot_recover(self):
        scheme = CrossAppScheme()
        tag = tag_for()
        protected = scheme.protect(FUNC, INPUT, tag, RESULT, rand())
        with pytest.raises(IntegrityError):
            scheme.recover(b"\x02" * 32, INPUT, tag, protected)

    def test_wrong_tag_cannot_recover(self):
        # The AEAD binds [res] to the tag: moving a ciphertext under a
        # different tag (cache poisoning) fails authentication.
        scheme = CrossAppScheme()
        protected = scheme.protect(FUNC, INPUT, tag_for(), RESULT, rand())
        with pytest.raises(IntegrityError):
            scheme.recover(FUNC, INPUT, tag_for(inp=b"other"), protected)

    def test_tampered_ciphertext_detected(self):
        scheme = CrossAppScheme()
        tag = tag_for()
        protected = scheme.protect(FUNC, INPUT, tag, RESULT, rand())
        bad = type(protected)(
            challenge=protected.challenge,
            wrapped_key=protected.wrapped_key,
            sealed_result=protected.sealed_result[:-1]
            + bytes([protected.sealed_result[-1] ^ 1]),
        )
        with pytest.raises(IntegrityError):
            scheme.recover(FUNC, INPUT, tag, bad)

    def test_randomized_ciphertexts(self):
        scheme = CrossAppScheme()
        tag = tag_for()
        drbg = HmacDrbg(b"x")
        a = scheme.protect(FUNC, INPUT, tag, RESULT, drbg.generate)
        b = scheme.protect(FUNC, INPUT, tag, RESULT, drbg.generate)
        assert a.sealed_result != b.sealed_result
        assert a.challenge != b.challenge

    def test_shapes(self):
        protected = CrossAppScheme().protect(FUNC, INPUT, tag_for(), RESULT, rand())
        assert len(protected.challenge) == CHALLENGE_SIZE
        assert len(protected.wrapped_key) == KEY_SIZE

    def test_malformed_challenge_rejected(self):
        scheme = CrossAppScheme()
        tag = tag_for()
        protected = scheme.protect(FUNC, INPUT, tag, RESULT, rand())
        bad = type(protected)(challenge=b"short", wrapped_key=protected.wrapped_key,
                              sealed_result=protected.sealed_result)
        with pytest.raises(CryptoError):
            scheme.recover(FUNC, INPUT, tag, bad)

    @given(st.binary(max_size=512), st.binary(max_size=512))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, input_bytes, result_bytes):
        scheme = CrossAppScheme()
        tag = derive_tag(FUNC, input_bytes)
        protected = scheme.protect(FUNC, input_bytes, tag, result_bytes, rand())
        assert scheme.recover(FUNC, input_bytes, tag, protected) == result_bytes


class TestSingleKeyScheme:
    def test_roundtrip(self):
        scheme = SingleKeyScheme(b"k" * 16)
        tag = tag_for()
        protected = scheme.protect(FUNC, INPUT, tag, RESULT, rand())
        assert scheme.recover(FUNC, INPUT, tag, protected) == RESULT
        assert protected.challenge == b""

    def test_wrong_system_key_fails(self):
        tag = tag_for()
        protected = SingleKeyScheme(b"k" * 16).protect(FUNC, INPUT, tag, RESULT, rand())
        with pytest.raises(IntegrityError):
            SingleKeyScheme(b"x" * 16).recover(FUNC, INPUT, tag, protected)

    def test_single_point_of_compromise(self):
        # The §III-B weakness: anyone with the system key decrypts, even
        # without owning (func, m).
        key = b"k" * 16
        tag = tag_for()
        protected = SingleKeyScheme(key).protect(FUNC, INPUT, tag, RESULT, rand())
        stolen = SingleKeyScheme(key).recover(
            b"attacker-func-id-0000000000000000", b"attacker input", tag, protected
        )
        assert stolen == RESULT

    def test_bad_key_size(self):
        with pytest.raises(CryptoError):
            SingleKeyScheme(b"short")
