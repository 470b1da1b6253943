"""Differential tests: the shipped AES-GCM kernels against a slow,
independent, spec-literal AES-GCM kept inside this file.

The reference shares no code with :mod:`repro.crypto`: its S-box comes
from the GF(2^8) inverse and the affine map, its round is SubBytes /
ShiftRows / MixColumns / AddRoundKey on a list of 16 bytes (FIPS-197
section 5.1), and its GHASH is the bit-at-a-time multiplication of SP
800-38D algorithm 1.  Sizes are taken from the kernels' private
size-class constants, so every path switch is crossed at -1 / 0 / +1.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aes, ctr, gcm
from repro.crypto.constant_time import bytes_eq
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
def ref_times_x(v: int) -> int:
    """One multiplication by ``x`` (SP 800-38D algorithm 1's ``V`` step)."""
    return (v >> 1) ^ (0xE1 << 120) if v & 1 else v >> 1


def ref_gf128_mul(x: int, y: int) -> int:
    z, v = 0, y
    for i in range(127, -1, -1):
        if (x >> i) & 1:
            z ^= v
        v = ref_times_x(v)
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


# -- the AES batch kernels at every batch size ---------------------------------
def _around_rows(n: int) -> list[int]:
    return [n - 1, n, n + 1]


# Every size up to 300 (scalar, one gather, column planes) and around the
# pair-table crossover.
AES_SWEEP = [*range(1, 301), *_around_rows(aes._PAIR_MIN_BLOCKS)]
AES_ROWS = max(AES_SWEEP)
_AES_RND = random.Random("aes-rows")
AES_KEYS = [_AES_RND.randbytes(16) for _ in range(AES_ROWS)]
AES_BLOCKS = np.frombuffer(_AES_RND.randbytes(16 * AES_ROWS), dtype=np.uint8).reshape(-1, 16)


@pytest.fixture(scope="module")
def aes_reference() -> dict[str, list[bytes]]:
    """Row ``i`` of ``AES_BLOCKS`` under key 0 and under key ``i``."""
    one = ref_expand_key(AES_KEYS[0])
    return {
        "one key": [ref_encrypt_block(one, row.tobytes()) for row in AES_BLOCKS],
        "key per row": [
            ref_encrypt_block(ref_expand_key(key), row.tobytes()) for key, row in zip(AES_KEYS, AES_BLOCKS)
        ],
    }


@pytest.mark.parametrize("keys", ["one key", "key per row"])
def test_every_aes_kernel_matches_the_reference_at_every_batch_size(aes_reference, keys):
    # The sweep crosses each tier boundary (aes._SCALAR_MAX_BLOCKS,
    # aes._GATHER_MAX_BLOCKS, aes._PAIR_MIN_BLOCKS) at -1 / 0 / +1.
    round_keys = aes.round_key_columns(AES_KEYS[:1] if keys == "one key" else AES_KEYS)
    cipher = aes.AES128(AES_KEYS[0])
    for n in AES_SWEEP:
        want = b"".join(aes_reference[keys][:n])
        blocks, rk = AES_BLOCKS[:n], round_keys[:, :, :n]
        assert aes.encrypt_planes(blocks, rk).tobytes() == want, n
        assert aes.encrypt_rows(blocks, rk).tobytes() == want, n
        if n <= aes._GATHER_MAX_BLOCKS:
            assert aes.encrypt_gather(blocks, aes.round_key_lanes(rk)).tobytes() == want, n
        if keys == "one key":
            assert cipher.encrypt_blocks(blocks).tobytes() == want, n


# -- a counter run: counter-mode caching from the crossover on ------------------
# Rows in the run: the crossover -1 / 0, one stripe, and one stripe with a
# tail that merges into it.
COUNTER_RUNS = [
    ctr._CACHED_MIN_BLOCKS - 1, ctr._CACHED_MIN_BLOCKS,
    ctr._STRIPE_BLOCKS, ctr._STRIPE_BLOCKS + 65,
]


@functools.cache
def counter_run_reference(bits: int) -> tuple[bytes, bytes, int, list[bytes]]:
    """A random key and IV, a first counter ``k`` short of ``2^bits``, and
    the reference keystream of the longest run: inc32 carries through
    byte ``bits / 8`` of the counter word inside every run (at ``2^32``,
    it wraps to 0)."""
    rnd = random.Random(f"counter-run-{bits}")
    key, iv, start = rnd.randbytes(16), rnd.randbytes(12), (1 << bits) - rnd.randrange(1, 70)
    round_keys = ref_expand_key(key)
    return key, iv, start, [
        ref_encrypt_block(round_keys, iv + ((start + i) % (1 << 32)).to_bytes(4, "big"))
        for i in range(max(COUNTER_RUNS))
    ]


@pytest.mark.parametrize("with_h", [False, True], ids=["bare", "H-prefix"])
@pytest.mark.parametrize("bits", [8, 16, 24, 32])
def test_counter_runs_match_the_reference(bits, with_h):
    key, iv, start, want = counter_run_reference(bits)
    cipher, initial = aes.AES128(key), iv + start.to_bytes(4, "big")
    prefix = bytes(16) if with_h else b""
    h = ref_encrypt_block(ref_expand_key(key), bytes(16)) if with_h else b""
    for rows in COUNTER_RUNS:
        expected = h + b"".join(want[:rows])
        assert cipher.encrypt_counter_run(initial, 0, rows, prefix).tobytes() == expected, rows
        lead, stream = ctr.ctr_stream(cipher, initial, bytes(16 * rows), prefix=prefix)
        assert lead + stream == expected, rows
    # A stripe after the first: the run starts ``first`` counters in.
    skip = COUNTER_RUNS[-1] - ctr._STRIPE_BLOCKS
    assert cipher.encrypt_counter_run(initial, skip, ctr._STRIPE_BLOCKS).tobytes() == b"".join(want[skip:])


def test_the_tier_boundaries_are_inside_the_swept_sizes():
    assert 1 <= aes._SCALAR_MAX_BLOCKS < aes._GATHER_MAX_BLOCKS < aes._PAIR_MIN_BLOCKS
    for boundary in (aes._SCALAR_MAX_BLOCKS, aes._GATHER_MAX_BLOCKS, aes._PAIR_MIN_BLOCKS):
        assert set(_around_rows(boundary)) <= set(AES_SWEEP)
    assert {ctr._CACHED_MIN_BLOCKS - 1, ctr._CACHED_MIN_BLOCKS} <= set(COUNTER_RUNS)
    assert ctr._CACHED_MIN_BLOCKS < ctr._STRIPE_BLOCKS and 65 < ctr._TAIL_MIN_BLOCKS


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


# -- a channel direction: AAD, ciphertext and lengths in one lane pass, then the fold
def channel_cipher(key: bytes) -> AesGcm:
    """A channel direction's cipher past its first lane-sized record, so
    that every record from ``_LANE_MIN_BLOCKS`` blocks takes the lanes."""
    cipher = AesGcm(key, _counter_label=0)
    cipher.encrypt(ctr.counter_iv(0, 0), bytes(16 * gcm._LANE_BUILD_BLOCKS))
    assert cipher._fold_stack is not None
    return cipher


def ref_auth(key: bytes, aad: bytes, ciphertext: bytes) -> int:
    h = int.from_bytes(ref_encrypt_block(ref_expand_key(key), bytes(16)), "big")
    lengths = (8 * len(aad)).to_bytes(8, "big") + (8 * len(ciphertext)).to_bytes(8, "big")
    return ref_ghash(h, _pad16(aad) + _pad16(ciphertext) + lengths)


FOLD_SIZES = sorted({
    *_around(gcm._LANE_MIN_BLOCKS), 16 * gcm._LANE_MIN_BLOCKS + 5,
    *_around(gcm._LANE_BUILD_BLOCKS), 16 * gcm._LANE_BUILD_BLOCKS + 11,
    *_around(WIDE[1]), 16 * WIDE[1] + 1,
})


@pytest.mark.parametrize("aad_len", [0, 1, 15, 16, 17, 16 * WIDE[1] + 3])
def test_channel_ghash_matches_reference(aad_len):
    rnd = random.Random(aad_len)
    key = rnd.randbytes(16)
    cipher = channel_cipher(key)
    for size in FOLD_SIZES:
        aad, ciphertext = rnd.randbytes(aad_len), rnd.randbytes(size)
        assert cipher._auth(aad, ciphertext) == ref_auth(key, aad, ciphertext), size


@pytest.mark.parametrize("size, aad_len", [
    (16 * gcm._LANE_MIN_BLOCKS + 5, 20),   # a channel record's AAD is 20 bytes
    (16 * WIDE[1] + 9, 17),
])
def test_channel_records_match_reference_and_reject_any_flipped_bit(size, aad_len):
    rnd = random.Random(size)
    key, seq = rnd.randbytes(16), 1 + rnd.randrange(100)
    iv, aad, plaintext = ctr.counter_iv(0, seq), rnd.randbytes(aad_len), rnd.randbytes(size)
    cipher = channel_cipher(key)
    ct, tag = cipher.encrypt(iv, plaintext, aad)
    assert (ct, tag) == ref_gcm_encrypt(key, iv, plaintext, aad)
    assert cipher.decrypt(iv, ct, tag, aad) == plaintext
    for forged in (
        (TestBulkTamper._flip(ct, 8 * (size // 2) + 3), tag, aad),
        (TestBulkTamper._flip(ct, 8 * size - 1), tag, aad),
        (ct, TestBulkTamper._flip(tag, 100), aad),
        (ct, tag, TestBulkTamper._flip(aad, 8 * aad_len - 1)),
    ):
        with pytest.raises(IntegrityError):
            cipher.decrypt(iv, *forged)


# -- the SWAR table build against the spec-literal x-chain -----------------------
def ref_bit_rows(hs: list[int]) -> np.ndarray:
    """``x^j * h`` for ``j`` = 0 .. 127 by 127 branchy steps per key, in
    :func:`gcm._bit_rows`' layout."""
    rows = []
    for v in hs:
        for _ in range(128):
            rows.append(v.to_bytes(16, "big"))
            v = ref_times_x(v)
    return np.frombuffer(b"".join(rows), dtype=np.uint64).reshape(len(hs), 128, 2)


# Every reduction step taken (a low bit set), none taken, the top bit alone.
EDGE_KEYS = [0, 1, 1 << 127, (1 << 128) - 1, 0xE1 << 120 | 1, 0x0101 * (1 << 112) | 0xFF]
keys128 = st.one_of(
    st.sampled_from(EDGE_KEYS),
    st.integers(0, (1 << 128) - 1),
    st.integers(0, (1 << 127) - 1).map(lambda v: v << 1 | 1),
)


@settings(max_examples=40, deadline=None)
@given(hs=st.sampled_from([1, 2, 7, 16, 33]).flatmap(
    lambda n: st.lists(keys128, min_size=n, max_size=n)
))
def test_swar_bit_rows_match_the_x_chain_row_by_row(hs):
    rows, want = gcm._bit_rows(hs), ref_bit_rows(hs)
    assert rows.shape == want.shape
    for k, j in zip(*np.nonzero((rows != want).any(axis=2))):
        raise AssertionError(f"key {k} (h = {hs[k]:#x}), row {j}")


def test_swar_bit_rows_at_the_edge_keys_and_the_tables_built_on_them(monkeypatch):
    hs = EDGE_KEYS + [random.Random("edge").getrandbits(128) for _ in range(10)]
    assert np.array_equal(gcm._bit_rows(hs), ref_bit_rows(hs))
    tables = gcm._lane_tables(hs)
    monkeypatch.setattr(gcm, "_bit_rows", ref_bit_rows)
    assert np.array_equal(tables, gcm._lane_tables(hs))


def test_a_channel_fold_stack_and_lane_table_match_the_x_chain(monkeypatch):
    key = random.Random("fold").randbytes(16)
    cipher = AesGcm(key, _counter_label=0)
    cipher.encrypt(ctr.counter_iv(0, 0), b"first record")
    h = int.from_bytes(ref_encrypt_block(ref_expand_key(key), bytes(16)), "big")
    powers = [h]
    while len(powers) < 16:
        powers.append(ref_gf128_mul(powers[-1], h))
    assert np.array_equal(cipher._fold_stack, ref_bit_rows(powers[::-1]).reshape(-1, 2).T)
    monkeypatch.setattr(gcm, "_bit_rows", ref_bit_rows)
    assert np.array_equal(cipher._lane_tables[16], gcm._lane_tables(powers[-1:]))


# -- a channel record of every size: fold, 16 lanes, 64 then 16, 128 then 16 ----
CHANNEL_TIERS = [least for least, _ in gcm._CHANNEL_PASSES if least]


def _payload_for(ghash_blocks: int, aad_len: int, ragged: int) -> int:
    """A payload length whose record hashes ``ghash_blocks`` blocks (AAD,
    ciphertext, lengths), its last block ``ragged`` bytes short."""
    blocks = ghash_blocks - 1 - -(-aad_len // 16)
    return max(16 * blocks - ragged, 0) if blocks > 0 else 0


_SIZE_RND = random.Random("channel-sizes")
CHANNEL_GHASH_BLOCKS = sorted({
    *range(1, 20), *_SIZE_RND.sample(range(20, 601), 30),
    *(edge + d for edge in CHANNEL_TIERS for d in (-1, 0, 1)),
})


@pytest.mark.parametrize("aad_len", [0, 20], ids=["no-aad", "aad"])
def test_every_channel_record_size_matches_a_plain_cipher_and_the_reference(aad_len):
    rnd = random.Random(f"channel-{aad_len}")
    key = rnd.randbytes(16)
    sender, receiver = AesGcm(key, _counter_label=1), AesGcm(key, _counter_label=1)
    plain, round_keys = AesGcm(key), ref_expand_key(key)
    for seq, blocks in enumerate(CHANNEL_GHASH_BLOCKS):
        if blocks == 1 and aad_len:
            continue                     # AAD and lengths alone are three blocks
        aad = rnd.randbytes(aad_len)
        plaintext = rnd.randbytes(_payload_for(blocks, aad_len, rnd.randrange(16)))
        iv = ctr.counter_iv(1, seq)
        sealed = sender.encrypt(iv, plaintext, aad)
        assert sealed == plain.encrypt(iv, plaintext, aad), blocks
        # The keystream is the plain cipher's, checked against the
        # reference at every AES tier above; the tag is the reference's.
        mask = int.from_bytes(ref_encrypt_block(round_keys, iv + b"\x00\x00\x00\x01"), "big")
        assert sealed[1] == (ref_auth(key, aad, sealed[0]) ^ mask).to_bytes(16, "big"), blocks
        assert receiver.decrypt(iv, *sealed, aad) == plaintext
        with pytest.raises(IntegrityError):
            receiver.decrypt(iv, sealed[0], TestBulkTamper._flip(sealed[1], blocks % 128), aad)


def test_the_channel_tier_boundaries_are_inside_the_swept_sizes():
    assert CHANNEL_TIERS == sorted(CHANNEL_TIERS, reverse=True) and CHANNEL_TIERS[-1] == 17
    assert gcm._CHANNEL_PASSES[-1] == (0, ())      # up to 16 blocks: the fold alone
    for edge in CHANNEL_TIERS:
        assert {edge - 1, edge, edge + 1} <= set(CHANNEL_GHASH_BLOCKS)
    assert max(CHANNEL_GHASH_BLOCKS) >= 512


# -- many records under many keys: seal_many / open_many -----------------------
N = gcm._GROUP_MIN_RECORDS
BOUND = gcm._GROUP_MAX_BLOCKS   # AAD + payload blocks of a short record
BIG = 1 << 16                   # never short: checked against the one-record path


def _pool() -> list[tuple[bytes, bytes, bytes, bytes]]:
    """``(key, iv, plaintext, aad)`` records: every payload length of
    interest under every AAD length for the small ones, the 32-byte AAD a
    result carries for the rest (just under and over the short bound)."""
    rnd = random.Random("pool")
    shapes = [(size, aad) for size in (0, 1, 15, 16, 17) for aad in (0, 32, 100)]
    shapes += [(1024, 32), (16 * (BOUND - 2), 32), (16 * (BOUND - 2) + 1, 32), (BIG, 32)]
    return [
        (rnd.randbytes(16), rnd.randbytes(12), rnd.randbytes(size), rnd.randbytes(aad))
        for size, aad in shapes
    ]


POOL = _pool()
_SEALED: dict[int, bytes] = {}


def _sealed(i: int) -> bytes:
    """The reference ``iv || tag || ciphertext`` of pool record ``i``."""
    if i not in _SEALED:
        key, iv, plaintext, aad = POOL[i]
        if len(plaintext) == BIG:  # 1 s of reference AES; its size class is checked above
            _SEALED[i] = gcm.seal(key, iv, plaintext, aad)
        else:
            ct, tag = ref_gcm_encrypt(key, iv, plaintext, aad)
            _SEALED[i] = iv + tag + ct
    return _SEALED[i]


groups = st.sampled_from([1, 2, N - 1, N, 32]).flatmap(
    lambda n: st.lists(st.integers(0, len(POOL) - 1), min_size=n, max_size=n)
)


@settings(max_examples=25, deadline=None)
@given(picks=groups)
def test_seal_many_and_open_many_match_the_reference(picks):
    # A pool record picked twice is a key repeated within the group.
    records = [POOL[i] for i in picks]
    want = [_sealed(i) for i in picks]
    assert gcm.seal_many(records) == want
    opened = gcm.open_many([(key, blob, aad) for (key, _, _, aad), blob in zip(records, want)])
    assert opened == [plaintext for _, _, plaintext, _ in records]


def test_only_enough_short_records_take_the_group_kernel(monkeypatch):
    calls = []
    real = gcm._group_pass
    monkeypatch.setattr(gcm, "_group_pass", lambda *a, **k: calls.append(len(a[0])) or real(*a, **k))
    short = [i for i, (k, iv, p, a) in enumerate(POOL) if gcm._short(k, iv, len(p), a)]
    gcm.seal_many([POOL[i] for i in short[:N - 1]])
    assert calls == []                       # too few to pay for the kernel
    assert gcm.seal_many([POOL[i] for i in short + [len(POOL) - 1]])[:-1] == [
        _sealed(i) for i in short
    ]
    assert calls == [len(short)]             # the long record went on its own


def _flip(data: bytes, at: int) -> bytes:
    out = bytearray(data)
    out[at % len(out)] ^= 0x10
    return bytes(out)


TAMPERS = {
    "ciphertext": lambda key, blob, aad: (key, _flip(blob, 28 + len(blob) // 2), aad),
    "tag": lambda key, blob, aad: (key, _flip(blob, 12 + 7), aad),
    "aad": lambda key, blob, aad: (key, blob, aad + b"!"),
    "iv": lambda key, blob, aad: (key, _flip(blob, 3), aad),
    "short_blob": lambda key, blob, aad: (key, blob[:27], aad),
    "wrong_key": lambda key, blob, aad: (_flip(key, 0), blob, aad),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
@pytest.mark.parametrize("size", [N, 32])
def test_open_many_fails_only_the_tampered_slot(monkeypatch, tamper, size):
    compared = []
    monkeypatch.setattr(gcm, "bytes_eq", lambda a, b: compared.append(1) or bytes_eq(a, b))
    rnd = random.Random(f"{tamper}{size}")
    records = [(rnd.randbytes(16), rnd.randbytes(12), rnd.randbytes(rnd.choice([0, 40, 1024])),
                rnd.randbytes(32)) for _ in range(size)]
    blobs = gcm.seal_many(records)
    victim = rnd.randrange(size)
    opening = [(key, blob, aad) for (key, _, _, aad), blob in zip(records, blobs)]
    opening[victim] = TAMPERS[tamper](*opening[victim])
    opened = gcm.open_many(opening)
    assert isinstance(opened[victim], IntegrityError)
    assert all(
        got == plaintext for i, (got, (_, _, plaintext, _)) in enumerate(zip(opened, records))
        if i != victim
    )
    assert len(compared) >= size - 1         # every grouped tag went through bytes_eq
