"""Enclave semantics: transition nesting, isolation, sealing, lifecycle."""

import pytest

from repro.errors import EnclaveError, SealingError
from repro.sgx.platform import SgxPlatform
from repro.sgx.sealing import SealPolicy


@pytest.fixture
def platform():
    return SgxPlatform(seed=b"enclave-tests")


@pytest.fixture
def enclave(platform):
    return platform.create_enclave("app", b"code-v1")


class TestTransitions:
    def test_starts_outside(self, enclave):
        assert not enclave.inside

    def test_ecall_enters(self, enclave):
        with enclave.ecall("f"):
            assert enclave.inside
        assert not enclave.inside

    def test_nested_ecall_rejected(self, enclave):
        with enclave.ecall("f"):
            with pytest.raises(EnclaveError):
                enclave.ecall("g").__enter__()

    def test_ocall_outside_rejected(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.ocall("o").__enter__()

    def test_ocall_within_ecall(self, enclave):
        with enclave.ecall("f"):
            with enclave.ocall("o"):
                assert not enclave.inside
            assert enclave.inside

    def test_reentrant_ecall_from_ocall(self, enclave):
        # OCALL -> ECALL re-entry is legal in SGX.
        with enclave.ecall("f"):
            with enclave.ocall("o"):
                with enclave.ecall("g"):
                    assert enclave.inside

    def test_transition_counts(self, enclave):
        with enclave.ecall("f"):
            with enclave.ocall("o"):
                pass
        assert enclave.ecall_count == 1
        assert enclave.ocall_count == 1

    def test_transitions_charge_clock(self, platform, enclave):
        before = platform.clock.snapshot()
        with enclave.ecall("f", in_bytes=100, out_bytes=50):
            pass
        expected = 2 * platform.clock.params.ecall_cycles + 150 * platform.clock.params.marshal_cycles_per_byte
        assert platform.clock.since(before) == pytest.approx(expected)


class TestIsolation:
    def test_memory_unreachable_from_outside(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.touch("heap", 0, 64)

    def test_memory_reachable_inside(self, enclave):
        with enclave.ecall("f"):
            assert enclave.touch("heap", 0, 64) >= 0

    def test_read_rand_requires_inside(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.read_rand(16)

    def test_read_rand_deterministic_per_seed(self, platform):
        e1 = SgxPlatform(seed=b"s").create_enclave("a", b"c")
        e2 = SgxPlatform(seed=b"s").create_enclave("a", b"c")
        with e1.ecall():
            r1 = e1.read_rand(16)
        with e2.ecall():
            r2 = e2.read_rand(16)
        assert r1 == r2


class TestSealing:
    def test_roundtrip_mrenclave(self, enclave):
        with enclave.ecall():
            blob = enclave.seal(b"secret")
            assert enclave.unseal(blob) == b"secret"

    def test_other_enclave_cannot_unseal_mrenclave(self, platform, enclave):
        other = platform.create_enclave("other", b"different-code")
        with enclave.ecall():
            blob = enclave.seal(b"secret", SealPolicy.MRENCLAVE)
        with other.ecall():
            with pytest.raises(SealingError):
                other.unseal(blob)

    def test_same_signer_can_unseal_mrsigner(self, platform, enclave):
        sibling = platform.create_enclave("v2", b"code-v2")  # same default signer
        with enclave.ecall():
            blob = enclave.seal(b"secret", SealPolicy.MRSIGNER)
        with sibling.ecall():
            assert sibling.unseal(blob) == b"secret"

    def test_different_signer_cannot_unseal_mrsigner(self, platform, enclave):
        foreign = platform.create_enclave("foreign", b"code-v1", signer=b"other-vendor")
        with enclave.ecall():
            blob = enclave.seal(b"secret", SealPolicy.MRSIGNER)
        with foreign.ecall():
            with pytest.raises(SealingError):
                foreign.unseal(blob)

    def test_seal_requires_inside(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.seal(b"x")


class TestLifecycle:
    def test_destroyed_enclave_rejects_calls(self, platform, enclave):
        platform.destroy_enclave(enclave)
        with pytest.raises(EnclaveError):
            enclave.ecall().__enter__()

    def test_destroy_frees_epc(self, platform, enclave):
        with enclave.ecall():
            enclave.touch("heap", 0, 4096 * 4)
        assert len(platform.epc._resident) > 0
        platform.destroy_enclave(enclave)
        assert len(platform.epc._resident) == 0

    def test_destroy_with_live_call_rejected(self, platform, enclave):
        with enclave.ecall():
            with pytest.raises(EnclaveError):
                enclave.destroy()

    def test_foreign_enclave_rejected(self, platform):
        other_platform = SgxPlatform(seed=b"other")
        foreign = other_platform.create_enclave("x", b"y")
        with pytest.raises(EnclaveError):
            platform.destroy_enclave(foreign)
