"""AES-GCM: NIST vectors, GF(2^128) algebra, tamper detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import gcm
from repro.crypto.gcm import AesGcm, open_, seal
from repro.errors import CryptoError, IntegrityError

from .test_gcm_kernels import ref_gf128_mul


class TestNistVectors:
    def test_case1_empty(self):
        _, tag = AesGcm(b"\x00" * 16).encrypt(b"\x00" * 12, b"")
        assert tag.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_case2_one_block(self):
        ct, tag = AesGcm(b"\x00" * 16).encrypt(b"\x00" * 12, b"\x00" * 16)
        assert ct.hex() == "0388dace60b6a392f328c2b971b2fe78"
        assert tag.hex() == "ab6e47d42cec13bdf53a67b21257bddf"

    # Test cases 3-6 of the GCM specification share one key and plaintext.
    KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
    PT = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
    )
    AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")

    def _check(self, iv, pt, aad, ct_hex, tag_hex):
        ct, tag = AesGcm(self.KEY).encrypt(iv, pt, aad)
        assert ct.hex() == ct_hex
        assert tag.hex() == tag_hex
        assert AesGcm(self.KEY).decrypt(iv, ct, tag, aad) == pt

    def test_case3_four_blocks(self):
        self._check(
            bytes.fromhex("cafebabefacedbaddecaf888"), self.PT, b"",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
            "4d5c2af327cd64a62cf35abd2ba6fab4",
        )

    def test_case4_with_aad(self):
        self._check(
            bytes.fromhex("cafebabefacedbaddecaf888"), self.PT[:60], self.AAD,
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
            "5bc94fbc3221a5db94fae95ae7121a47",
        )

    def test_case5_short_iv(self):
        self._check(
            bytes.fromhex("cafebabefacedbad"), self.PT[:60], self.AAD,
            "61353b4c2806934a777ff51fa22a4755699b2a714fcdc6f83766e5f97b6c7423"
            "73806900e49f24b22b097544d4896b424989b5e1ebac0f07c23f4598",
            "3612d2e79e3b0785561be14aaca2fccb",
        )

    def test_case6_long_iv(self):
        iv = bytes.fromhex(
            "9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728"
            "c3c0c95156809539fcf0e2429a6b525416aedbf5a0de6a57a637b39b"
        )
        self._check(
            iv, self.PT[:60], self.AAD,
            "8ce24998625615b603a033aca13fb894be9112a5c3a211a8ba262a3cca7e2ca7"
            "01e4a9a4fba43c90ccdcb281d48c7c6fd62875d2aca417034c34aee5",
            "619cc5aefffe0bfa462af43c1699d050",
        )

    def test_long_iv_path(self):
        # Non-12-byte IVs go through the GHASH J0 derivation.
        g = AesGcm(b"\x01" * 16)
        ct, tag = g.encrypt(b"\x02" * 20, b"payload")
        assert g.decrypt(b"\x02" * 20, ct, tag) == b"payload"


class TestGhashAlgebra:
    H = int.from_bytes(bytes.fromhex("66e94bd4ef8a2c3b884cfa59ca342b2e"), "big")

    def test_identity_element(self):
        one = 1 << 127
        assert ref_gf128_mul(self.H, one) == self.H

    def test_commutative(self):
        a, b = 0x1234567890ABCDEF << 64, 0xFEDCBA0987654321
        assert ref_gf128_mul(a, b) == ref_gf128_mul(b, a)

    def test_distributive(self):
        a, b, c = (0x1111 << 100), (0x2222 << 50), 0x3333
        assert ref_gf128_mul(a ^ b, c) == ref_gf128_mul(a, c) ^ ref_gf128_mul(b, c)

    OPERANDS = (1, 0xDEADBEEF, (1 << 127) | 0xABCD, (0x77 << 120) | (0x55 << 8))

    def test_table_agrees_with_bitwise_mult(self):
        byte_table = gcm._byte_table(self.H)
        lane_table = gcm._lane_tables([self.H]).view("u1").reshape(16, 256, 16)
        for x in self.OPERANDS:
            want = ref_gf128_mul(x, self.H)
            assert gcm._ghash_blocks(byte_table, 0, x.to_bytes(16, "big")) == want
            via_lanes = 0
            for i, byte in enumerate(x.to_bytes(16, "big")):
                via_lanes ^= int.from_bytes(lane_table[i, byte].tobytes(), "big")
            assert via_lanes == want

    def test_square_agrees_with_bitwise_mult(self):
        for x in self.OPERANDS + (self.H, (1 << 128) - 1):
            assert gcm._gf_square(x) == ref_gf128_mul(x, x)


class TestTamperDetection:
    KEY = b"k" * 16
    IV = b"i" * 12

    def _encrypt(self, pt=b"secret result bytes", aad=b"tag-binding"):
        return AesGcm(self.KEY).encrypt(self.IV, pt, aad)

    def test_ciphertext_flip_detected(self):
        ct, tag = self._encrypt()
        bad = ct[:-1] + bytes([ct[-1] ^ 1])
        with pytest.raises(IntegrityError):
            AesGcm(self.KEY).decrypt(self.IV, bad, tag, b"tag-binding")

    def test_tag_flip_detected(self):
        ct, tag = self._encrypt()
        bad = tag[:-1] + bytes([tag[-1] ^ 1])
        with pytest.raises(IntegrityError):
            AesGcm(self.KEY).decrypt(self.IV, ct, bad, b"tag-binding")

    def test_wrong_aad_detected(self):
        ct, tag = self._encrypt()
        with pytest.raises(IntegrityError):
            AesGcm(self.KEY).decrypt(self.IV, ct, tag, b"other-binding")

    def test_wrong_iv_detected(self):
        ct, tag = self._encrypt()
        with pytest.raises(IntegrityError):
            AesGcm(self.KEY).decrypt(b"j" * 12, ct, tag, b"tag-binding")

    def test_wrong_key_detected(self):
        ct, tag = self._encrypt()
        with pytest.raises(IntegrityError):
            AesGcm(b"x" * 16).decrypt(self.IV, ct, tag, b"tag-binding")

    def test_truncated_tag_rejected(self):
        ct, tag = self._encrypt()
        with pytest.raises(IntegrityError):
            AesGcm(self.KEY).decrypt(self.IV, ct, tag[:12], b"tag-binding")

    def test_empty_iv_rejected(self):
        with pytest.raises(CryptoError):
            AesGcm(self.KEY).encrypt(b"", b"data")


class TestSealOpen:
    @given(st.binary(max_size=2048), st.binary(max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, plaintext, aad):
        blob = seal(b"k" * 16, b"i" * 12, plaintext, aad)
        assert open_(b"k" * 16, blob, aad) == plaintext

    def test_blob_layout(self):
        blob = seal(b"k" * 16, b"i" * 12, b"abc")
        assert blob[:12] == b"i" * 12
        assert len(blob) == 12 + 16 + 3

    def test_short_blob_rejected(self):
        with pytest.raises(IntegrityError):
            open_(b"k" * 16, b"too-short")

    def test_randomised_ivs_give_distinct_ciphertexts(self):
        a = seal(b"k" * 16, b"i" * 12, b"same message")
        b = seal(b"k" * 16, b"j" * 12, b"same message")
        assert a[28:] != b[28:]
