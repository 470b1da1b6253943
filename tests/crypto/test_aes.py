"""AES-128 block cipher: FIPS-197 vectors and structural properties."""

import numpy as np
import pytest

from repro.crypto.aes import AES128, SBOX
from repro.errors import CryptoError

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


class TestVectors:
    def test_fips197_encrypt(self):
        assert AES128(FIPS_KEY).encrypt_block(FIPS_PT) == FIPS_CT

    def test_sp800_38a_vector(self):
        # NIST SP 800-38A F.1.1 ECB-AES128 block #1.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        pt = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        assert AES128(key).encrypt_block(pt).hex() == "3ad77bb40d7a3660a89ecaf32466ef97"

    def test_derived_sbox_is_the_aes_sbox(self):
        # Spot-check derived tables against published values.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_sbox_is_permutation(self):
        assert sorted(SBOX.tolist()) == list(range(256))


class TestRoundtrip:
    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(0)
        blocks = rng.integers(0, 256, (64, 16)).astype(np.uint8)
        cipher = AES128(b"0123456789abcdef")
        batch = cipher.encrypt_blocks(blocks)
        for i in range(len(blocks)):
            assert batch[i].tobytes() == cipher.encrypt_block(blocks[i].tobytes())

    def test_different_keys_differ(self):
        a = AES128(b"a" * 16).encrypt_block(FIPS_PT)
        b = AES128(b"b" * 16).encrypt_block(FIPS_PT)
        assert a != b


class TestValidation:
    @pytest.mark.parametrize("key_len", [0, 15, 17, 24, 32])
    def test_rejects_bad_key_sizes(self, key_len):
        with pytest.raises(CryptoError):
            AES128(b"k" * key_len)

    @pytest.mark.parametrize("block_len", [0, 15, 17, 32])
    def test_rejects_bad_block_sizes(self, block_len):
        with pytest.raises(CryptoError):
            AES128(b"k" * 16).encrypt_block(b"x" * block_len)

    def test_rejects_bad_array_shape(self):
        with pytest.raises(CryptoError):
            AES128(b"k" * 16).encrypt_blocks(np.zeros((4, 8), dtype=np.uint8))
