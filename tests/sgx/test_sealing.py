"""Sealing module unit tests (policy key derivation, blob integrity)."""

import pytest

from repro.crypto import gcm
from repro.errors import SealingError
from repro.sgx.measurement import measure_code
from repro.sgx.platform import SgxPlatform
from repro.sgx.sealing import (
    SealPolicy,
    derive_seal_key,
    seal_data,
    unseal_data,
)

from ..durable.conftest import durable_deployment, put

FABRIC = b"\x42" * 32
MEAS = measure_code(b"enclave-code", signer=b"vendor")
IV = b"\x07" * 12


class TestKeyDerivation:
    def test_policies_derive_distinct_keys(self):
        k_encl = derive_seal_key(FABRIC, MEAS, SealPolicy.MRENCLAVE)
        k_sign = derive_seal_key(FABRIC, MEAS, SealPolicy.MRSIGNER)
        assert k_encl != k_sign
        assert len(k_encl) == len(k_sign) == 16

    def test_mrenclave_key_tracks_code(self):
        other = measure_code(b"different-code", signer=b"vendor")
        assert derive_seal_key(FABRIC, MEAS, SealPolicy.MRENCLAVE) != derive_seal_key(
            FABRIC, other, SealPolicy.MRENCLAVE
        )

    def test_mrsigner_key_ignores_code(self):
        other = measure_code(b"different-code", signer=b"vendor")
        assert derive_seal_key(FABRIC, MEAS, SealPolicy.MRSIGNER) == derive_seal_key(
            FABRIC, other, SealPolicy.MRSIGNER
        )

    def test_fabric_key_matters(self):
        assert derive_seal_key(FABRIC, MEAS, SealPolicy.MRENCLAVE) != derive_seal_key(
            b"\x43" * 32, MEAS, SealPolicy.MRENCLAVE
        )


class TestSealUnseal:
    def test_roundtrip(self):
        blob = seal_data(FABRIC, MEAS, b"secret", SealPolicy.MRENCLAVE, IV)
        assert unseal_data(FABRIC, MEAS, blob) == b"secret"

    def test_policy_recorded_in_blob(self):
        blob = seal_data(FABRIC, MEAS, b"s", SealPolicy.MRSIGNER, IV)
        assert blob.policy is SealPolicy.MRSIGNER

    def test_cross_policy_confusion_rejected(self):
        # An attacker relabeling an MRENCLAVE blob as MRSIGNER changes
        # the derived key AND the AAD, so unsealing fails.
        blob = seal_data(FABRIC, MEAS, b"s", SealPolicy.MRENCLAVE, IV)
        forged = type(blob)(policy=SealPolicy.MRSIGNER, payload=blob.payload)
        with pytest.raises(SealingError):
            unseal_data(FABRIC, MEAS, forged)

    def test_bitflip_rejected(self):
        blob = seal_data(FABRIC, MEAS, b"secret", SealPolicy.MRENCLAVE, IV)
        payload = blob.payload[:-1] + bytes([blob.payload[-1] ^ 1])
        with pytest.raises(SealingError):
            unseal_data(FABRIC, MEAS, type(blob)(policy=blob.policy, payload=payload))

    def test_empty_payload_sealable(self):
        blob = seal_data(FABRIC, MEAS, b"", SealPolicy.MRENCLAVE, IV)
        assert unseal_data(FABRIC, MEAS, blob) == b""


class TestEnclaveKeptCipher:
    """An enclave seals through one cipher per policy, kept for its life:
    the bytes are the one-shot AEAD's, its tables are built once."""

    # Payload blocks at every GHASH tier edge of a kept cipher, whole and
    # with ragged tails; the AAD and lengths add three blocks.
    SIZES = sorted({16 * b + tail for b in (0, 1, 16, 17, 144, 145, 511, 512)
                    for tail in (0, 5) if 16 * b + tail}
                   | {16 * (total - 3) for total in (16, 17, 144, 145, 511, 512)})

    @pytest.fixture
    def enclave(self):
        return SgxPlatform(seed=b"kept-seal").create_enclave("store", b"code")

    @pytest.mark.parametrize("policy", list(SealPolicy))
    def test_seal_equals_the_one_shot_aead_at_every_tier_edge(self, enclave, policy):
        key = derive_seal_key(enclave.platform.seal_fabric_key, enclave.measurement, policy)
        aad = b"speed/seal/" + policy.value.encode()
        with enclave.ecall("test"):
            for size in [0] + self.SIZES:
                data = bytes((7 * i + size) % 256 for i in range(size))
                blob = enclave.seal(data, policy)
                iv = blob.payload[:12]
                assert blob.payload == gcm.seal(key, iv, data, aad), size
                assert enclave.unseal(blob) == data

    def test_a_flipped_byte_still_raises_sealing_error(self, enclave):
        with enclave.ecall("test"):
            for size in (0, 100, 16 * 145):
                blob = enclave.seal(bytes(size), SealPolicy.MRSIGNER)
                for at in (0, 12, len(blob.payload) - 1):
                    payload = bytearray(blob.payload)
                    payload[at] ^= 0x40
                    with pytest.raises(SealingError):
                        enclave.unseal(type(blob)(policy=blob.policy, payload=bytes(payload)))

    def test_group_commits_build_the_sealing_tables_once(self):
        d, client = durable_deployment(b"kept-seal-commits", wal_group_commit=1)
        put(client, b"\x00")   # the first commit builds the sealing cipher's tables
        before, commits = gcm.table_builds, d.store.durable.snapshot()["durable.commits"]
        for i in range(1, 9):
            put(client, bytes([i]))
        assert d.store.durable.snapshot()["durable.commits"] - commits >= 8
        assert gcm.table_builds == before
        # ... and they are the fold stack's: no seal takes a scalar step.
        cipher = d.store.enclave._seal_ciphers[SealPolicy.MRSIGNER]
        assert cipher._fold_stack is not None and cipher._byte_table is None
