"""The Fig. 3 verification protocol: true/false verdicts, never raises."""

from repro.core.scheme import CrossAppScheme, ProtectedResult
from repro.core.tag import derive_tag
from repro.core.verification import verify_many
from repro.crypto.drbg import HmacDrbg

FUNC = b"\x01" * 32
INPUT = b"input m"
RESULT = b"result res"


def verify_and_recover(scheme, func, input_bytes, tag, protected):
    """Fig. 3 on one GET answer: its verdict from :func:`verify_many`."""
    ((outcome, _charges),) = verify_many(scheme, func, [(input_bytes, tag, protected)])
    return outcome


def protected_for(func=FUNC, inp=INPUT):
    scheme = CrossAppScheme()
    tag = derive_tag(func, inp)
    return tag, scheme.protect(func, inp, tag, RESULT, HmacDrbg(b"v").generate)


class TestVerification:
    def test_owner_verifies_true(self):
        tag, protected = protected_for()
        outcome = verify_and_recover(CrossAppScheme(), FUNC, INPUT, tag, protected)
        assert outcome.ok
        assert outcome.result_bytes == RESULT

    def test_non_owner_gets_false_not_exception(self):
        tag, protected = protected_for()
        outcome = verify_and_recover(
            CrossAppScheme(), FUNC, b"wrong input", tag, protected
        )
        assert not outcome.ok
        assert outcome.result_bytes == b""
        assert "rejected" in outcome.reason

    def test_poisoned_entry_gets_false(self):
        tag, protected = protected_for()
        poisoned = ProtectedResult(
            challenge=protected.challenge,
            wrapped_key=protected.wrapped_key,
            sealed_result=b"\x00" * len(protected.sealed_result),
        )
        outcome = verify_and_recover(CrossAppScheme(), FUNC, INPUT, tag, poisoned)
        assert not outcome.ok

    def test_malformed_entry_gets_false(self):
        tag, _ = protected_for()
        garbage = ProtectedResult(challenge=b"x", wrapped_key=b"y", sealed_result=b"z")
        outcome = verify_and_recover(CrossAppScheme(), FUNC, INPUT, tag, garbage)
        assert not outcome.ok
        assert "malformed" in outcome.reason
