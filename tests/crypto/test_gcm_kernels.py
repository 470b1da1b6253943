"""Differential tests: the shipped AES-GCM kernels against a slow,
independent, spec-literal AES-GCM kept inside this file.

The reference shares no code with :mod:`repro.crypto`: its S-box comes
from the GF(2^8) inverse and the affine map, its round is SubBytes /
ShiftRows / MixColumns / AddRoundKey on a list of 16 bytes (FIPS-197
section 5.1), and its GHASH is the bit-at-a-time multiplication of SP
800-38D algorithm 1.  Sizes are taken from the kernels' private
size-class constants, so every path switch is crossed at -1 / 0 / +1.
"""

import random

import pytest

from repro.crypto import ctr, gcm
from repro.crypto.gcm import AesGcm
from repro.errors import IntegrityError


# -- reference AES-128 (FIPS-197, one block at a time) -----------------------
def _gf8_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a = (a << 1) ^ (0x11B if a & 0x80 else 0)
        b >>= 1
    return out


def _sbox_entry(x: int) -> int:
    inv = next((c for c in range(256) if _gf8_mul(x, c) == 1), 0)
    rot = lambda v, n: ((v << n) | (v >> (8 - n))) & 0xFF  # noqa: E731
    return inv ^ rot(inv, 1) ^ rot(inv, 2) ^ rot(inv, 3) ^ rot(inv, 4) ^ 0x63


REF_SBOX = [_sbox_entry(x) for x in range(256)]


def ref_expand_key(key: bytes) -> list[list[int]]:
    words = [list(key[4 * i:4 * i + 4]) for i in range(4)]
    rcon = 1
    for i in range(4, 44):
        t = list(words[i - 1])
        if i % 4 == 0:
            t = [REF_SBOX[b] for b in t[1:] + t[:1]]
            t[0] ^= rcon
            rcon = _gf8_mul(rcon, 2)
        words.append([a ^ b for a, b in zip(words[i - 4], t)])
    return [sum(words[4 * r:4 * r + 4], []) for r in range(11)]


def ref_encrypt_block(round_keys: list[list[int]], block: bytes) -> bytes:
    state = [b ^ k for b, k in zip(block, round_keys[0])]
    for rnd in range(1, 11):
        state = [REF_SBOX[b] for b in state]
        # state[4c + r] is row r, column c; row r rotates left by r.
        state = [state[4 * ((c + r) % 4) + r] for c in range(4) for r in range(4)]
        if rnd < 10:
            mixed = []
            for c in range(4):
                a = state[4 * c:4 * c + 4]
                mixed += [
                    _gf8_mul(a[r], 2) ^ _gf8_mul(a[(r + 1) % 4], 3) ^ a[(r + 2) % 4] ^ a[(r + 3) % 4]
                    for r in range(4)
                ]
            state = mixed
        state = [b ^ k for b, k in zip(state, round_keys[rnd])]
    return bytes(state)


# -- reference GHASH / GCM (SP 800-38D) --------------------------------------
def ref_gf128_mul(x: int, y: int) -> int:
    z, v = 0, y
    for i in range(127, -1, -1):
        if (x >> i) & 1:
            z ^= v
        v = (v >> 1) ^ (0xE1 << 120) if v & 1 else v >> 1
    return z


def ref_ghash(h: int, data: bytes) -> int:
    assert len(data) % 16 == 0
    y = 0
    for off in range(0, len(data), 16):
        y = ref_gf128_mul(y ^ int.from_bytes(data[off:off + 16], "big"), h)
    return y


def _pad16(data: bytes) -> bytes:
    return data + bytes(-len(data) % 16)


def ref_j0(round_keys, iv: bytes) -> bytes:
    if len(iv) == 12:
        return iv + b"\x00\x00\x00\x01"
    h = int.from_bytes(ref_encrypt_block(round_keys, bytes(16)), "big")
    return ref_ghash(h, _pad16(iv) + bytes(8) + (8 * len(iv)).to_bytes(8, "big")).to_bytes(16, "big")


def ref_gcm_encrypt(key: bytes, iv: bytes, plaintext: bytes, aad: bytes, j0: bytes | None = None):
    round_keys = ref_expand_key(key)
    h = int.from_bytes(ref_encrypt_block(round_keys, bytes(16)), "big")
    j0 = j0 or ref_j0(round_keys, iv)
    prefix, counter = j0[:12], int.from_bytes(j0[12:], "big")
    out = bytearray()
    for off in range(0, len(plaintext), 16):
        counter = (counter + 1) % (1 << 32)  # inc32: only the last word moves
        pad = ref_encrypt_block(round_keys, prefix + counter.to_bytes(4, "big"))
        out += bytes(p ^ k for p, k in zip(plaintext[off:off + 16], pad))
    ciphertext = bytes(out)
    lengths = (8 * len(aad)).to_bytes(8, "big") + (8 * len(ciphertext)).to_bytes(8, "big")
    s = ref_ghash(h, _pad16(aad) + _pad16(ciphertext) + lengths)
    tag = s ^ int.from_bytes(ref_encrypt_block(round_keys, j0), "big")
    return ciphertext, tag.to_bytes(16, "big")


def test_reference_is_the_standard():
    # FIPS-197 appendix C.1 and SP 800-38D test case 2 pin the reference
    # itself, so agreeing with it means agreeing with the standards.
    rk = ref_expand_key(bytes(range(16)))
    assert ref_encrypt_block(rk, bytes.fromhex("00112233445566778899aabbccddeeff")).hex() == (
        "69c4e0d86a7b0430d8cdb78070b4c55a"
    )
    ct, tag = ref_gcm_encrypt(bytes(16), bytes(12), bytes(16), b"")
    assert ct.hex() == "0388dace60b6a392f328c2b971b2fe78"
    assert tag.hex() == "ab6e47d42cec13bdf53a67b21257bddf"


# -- the sizes at which a kernel switches path -------------------------------
def _around(n_blocks: int) -> list[int]:
    return [16 * (n_blocks - 1), 16 * n_blocks, 16 * (n_blocks + 1)]


WIDE, NARROW = gcm._LANE_PASSES
SIZES = sorted({
    0, 1, 15, 16, 17,
    *_around(NARROW[1]),                  # scalar GHASH <-> one lane pass (a key's second record)
    *_around(gcm._LANE_BUILD_BLOCKS),     # ... and for its first
    *_around(WIDE[1]),                    # one lane pass <-> two
    16 * (NARROW[1] + 5) + 3,             # not a multiple of the narrow width, ragged tail
    16 * (WIDE[1] + WIDE[0] // 2 + 5) + 7,  # nor of the wide one
    *_around(ctr._STRIPE_BLOCKS - 1),     # J0 + data fill one AES stripe exactly, -1 / +1
})


@pytest.mark.parametrize("size", SIZES)
def test_shipped_aead_matches_reference(size):
    rnd = random.Random(size)
    key, iv = rnd.randbytes(16), rnd.randbytes(12)
    aad = rnd.randbytes(rnd.choice([0, 1, 16, 20, 33]))
    plaintext = rnd.randbytes(size)
    want = ref_gcm_encrypt(key, iv, plaintext, aad)
    cipher = AesGcm(key)
    assert cipher.encrypt(iv, plaintext, aad) == want
    assert cipher.decrypt(iv, *want, aad) == plaintext


@pytest.mark.parametrize("iv_len", [1, 8, 13, 16, 60, 16 * NARROW[1] + 5])
def test_non_96_bit_ivs_match_reference(iv_len):
    rnd = random.Random(iv_len)
    key, iv, aad = rnd.randbytes(16), rnd.randbytes(iv_len), rnd.randbytes(20)
    plaintext = rnd.randbytes(16 * NARROW[1] + 9)
    want = ref_gcm_encrypt(key, iv, plaintext, aad)
    assert AesGcm(key).encrypt(iv, plaintext, aad) == want
    assert AesGcm(key).decrypt(iv, *want, aad) == plaintext


def test_bulk_aad_matches_reference():
    rnd = random.Random(7)
    key, iv = rnd.randbytes(16), rnd.randbytes(12)
    aad, plaintext = rnd.randbytes(16 * WIDE[1] + 3), rnd.randbytes(40)
    assert AesGcm(key).encrypt(iv, plaintext, aad) == ref_gcm_encrypt(key, iv, plaintext, aad)


@pytest.mark.parametrize("blocks_before_wrap", [0, 1, 3, 70])
def test_counter_wraps_inside_the_record(monkeypatch, blocks_before_wrap):
    # A 96-bit IV starts the counter at 1, and a J0 hashed from any other
    # IV cannot be steered, so force J0 on both sides: the 32-bit counter
    # passes 0xFFFFFFFF inside the record and must wrap without carrying
    # into the IV part (inc32).
    rnd = random.Random(blocks_before_wrap)
    key, aad = rnd.randbytes(16), rnd.randbytes(20)
    j0 = rnd.randbytes(12) + (0xFFFFFFFF - blocks_before_wrap).to_bytes(4, "big")
    plaintext = rnd.randbytes(16 * (blocks_before_wrap + 80) + 5)
    monkeypatch.setattr(AesGcm, "_j0", lambda self, iv: j0)
    want = ref_gcm_encrypt(key, b"ignored", plaintext, aad, j0=j0)
    assert AesGcm(key).encrypt(b"ignored", plaintext, aad) == want
    assert AesGcm(key).decrypt(b"ignored", *want, aad) == plaintext


class TestBulkTamper:
    """One flipped bit anywhere in a bulk record (two lane passes, more
    than one AES stripe) is an IntegrityError, never plaintext."""

    KEY = bytes(range(16))
    IV = bytes(range(12))
    AAD = b"tag-binding-of-a-bulk-record"
    PLAINTEXT = random.Random(99).randbytes(16 * (ctr._STRIPE_BLOCKS + 3) + 11)

    @pytest.fixture(scope="class")
    def record(self):
        return AesGcm(self.KEY).encrypt(self.IV, self.PLAINTEXT, self.AAD)

    @staticmethod
    def _flip(data: bytes, bit: int) -> bytes:
        out = bytearray(data)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)

    def test_untampered_record_opens(self, record):
        assert AesGcm(self.KEY).decrypt(self.IV, *record, self.AAD) == self.PLAINTEXT

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_ciphertext_bit(self, record, where):
        ct, tag = record
        bit = {"first": 0, "middle": 4 * len(ct), "last": 8 * len(ct) - 1}[where]
        with pytest.raises(IntegrityError):
            AesGcm(self.KEY).decrypt(self.IV, self._flip(ct, bit), tag, self.AAD)

    def test_tag_bit(self, record):
        ct, tag = record
        with pytest.raises(IntegrityError):
            AesGcm(self.KEY).decrypt(self.IV, ct, self._flip(tag, 77), self.AAD)

    def test_aad_bit(self, record):
        with pytest.raises(IntegrityError):
            AesGcm(self.KEY).decrypt(self.IV, *record, self._flip(self.AAD, 5))

    def test_iv_bit(self, record):
        with pytest.raises(IntegrityError):
            AesGcm(self.KEY).decrypt(self._flip(self.IV, 90), *record, self.AAD)
