"""AES-128 block cipher implemented from scratch.

The paper's prototype uses the AES implementation shipped with the Intel
SGX SDK.  We have no native crypto available in this environment, so this
module provides a self-contained AES-128 whose tables (S-box, inverse
S-box, GF(2^8) multiplication tables) are *derived at import time* from the
field definition rather than transcribed, which keeps the implementation
auditable and removes transcription risk.  Correctness is pinned to the
FIPS-197 vectors in the test suite.

Encryption is the hot direction (CTR and GCM never decrypt a block), so
its round is fused: SubBytes, ShiftRows and MixColumns collapse into four
32-bit T-table lookups per state column, the tables again derived at
import.  Three execution paths share those tables;
:meth:`AES128.encrypt_blocks` picks one by batch size:

* :meth:`AES128.encrypt_block` — one 16-byte block in pure Python ints
  (~13 us), for batches of up to ``_SCALAR_MAX_BLOCKS`` rows.
* :func:`encrypt_gather` — up to ``_GATHER_MAX_BLOCKS`` rows: a round is
  one gather of every table term, each state byte in a 16-bit lane that
  is its own index into the four tables concatenated, and one XOR-reduce.
* :func:`encrypt_planes` — larger batches: ~9 numpy calls per round over
  the state held as four column planes of ``N`` words each, which makes
  ShiftRows a choice of rows and the round key a broadcast along the
  contiguous axis (measured against an ``(N, 4)`` word layout: equal at
  65 blocks, 1.3x faster at 1024); its calls grow less with ``N``.  From
  ``_PAIR_MIN_BLOCKS`` rows a round reads 65,536-word *pair tables*
  ``T0[a] ^ T1[b]`` and ``T2[c] ^ T3[d]`` (the last round ``SBOX[a] |
  SBOX[b] << 8``, a half word each; 640 KiB in all): two lookups per
  column, not four.

A counter run (:mod:`repro.crypto.ctr` from its crossover) takes
:meth:`AES128.encrypt_counter_run`: its state after round 2 from tables
built per run, then rounds 3-10 on the planes.

Microseconds per batch, scalar / gather / planes, alternated in one
process (at 71941b1): 1 row 13 / 29 / -, 2 rows 26 / 30 / -, 3 rows
40 / 30 / -, 6 rows 80 / 31 / 75, 71 rows - / 62 / 93, 192 rows - / 115 /
119, 224 rows - / 121 / 128, 256 rows - / 136 / 131.  Both numpy kernels
take a key per row too (:func:`repro.crypto.gcm.seal_many`).

Planes, four lookups / pair tables, caches flushed before each call,
alternated on a 2-vCPU Intel Xeon about half as fast: 225 rows 291 / 302,
384 345 / 349, 512 386 / 373, 768 471 / 436, 1024 567 / 504, 2048 935 /
771, 4097 1731 / 1378 us (warm: 256 rows 255 / 210, 512 348 / 276); 512
is the first size that wins cold.  Counter runs there, counter blocks by
:meth:`AES128.encrypt_blocks` / :meth:`AES128.encrypt_counter_run`, cold:
512 rows 408 / 430, 1024 552 / 530, 2048 847 / 777, 4097 1454 / 1255 us.

Decryption (:meth:`AES128.decrypt_block` / :meth:`AES128.decrypt_blocks`)
keeps the spec-literal inverse round; nothing on a request path uses it.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import CryptoError

BLOCK_SIZE = 16
KEY_SIZE = 16
_NUM_ROUNDS = 10

# Batches of at most this many blocks are cheaper one block at a time in
# pure ints than through numpy, up to _GATHER_MAX_BLOCKS through the
# one-gather round than the column planes, and from _PAIR_MIN_BLOCKS the
# planes round through the pair tables (module docstring).
_SCALAR_MAX_BLOCKS = 2
_GATHER_MAX_BLOCKS = 224
_PAIR_MIN_BLOCKS = 512

# State columns are little-endian words: byte ``r`` of the word is row ``r``.
_U32 = np.dtype("<u4")
_U64 = np.dtype("<u8")
_UNPACK_COLUMNS = struct.Struct("<4I").unpack


def _xtime(b: int) -> int:
    """Multiply by x (0x02) in GF(2^8) with the AES polynomial 0x11B."""
    b <<= 1
    if b & 0x100:
        b ^= 0x11B
    return b & 0xFF


def _build_tables():
    """Derive all AES lookup tables from the GF(2^8) field definition."""
    # Discrete log tables over the generator 0x03.
    log = [0] * 256
    exp = [0] * 510
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= _xtime(x)  # x *= 0x03
    for i in range(255, 510):
        exp[i] = exp[i - 255]

    def gf_mul(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return exp[log[a] + log[b]]

    sbox = [0] * 256
    for i in range(256):
        inv = 0 if i == 0 else exp[255 - log[i]]
        s = inv
        for shift in range(1, 5):
            s ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox[i] = s ^ 0x63

    inv_sbox = [0] * 256
    for i, s in enumerate(sbox):
        inv_sbox[s] = i

    mul = {c: [gf_mul(i, c) for i in range(256)] for c in (2, 3, 9, 11, 13, 14)}
    return sbox, inv_sbox, mul


_SBOX_LIST, _INV_SBOX_LIST, _MUL = _build_tables()

SBOX = np.array(_SBOX_LIST, dtype=np.uint8)
INV_SBOX = np.array(_INV_SBOX_LIST, dtype=np.uint8)
_M9 = np.array(_MUL[9], dtype=np.uint8)
_M11 = np.array(_MUL[11], dtype=np.uint8)
_M13 = np.array(_MUL[13], dtype=np.uint8)
_M14 = np.array(_MUL[14], dtype=np.uint8)


def _round_tables() -> tuple[list[list[int]], list[list[int]]]:
    """The fused encryption round as word tables.

    ``te[r][x]`` is the MixColumns image of ``SBOX[x]`` sitting in row
    ``r`` of a column, so an output column is the XOR of one lookup per
    row (the rows drawn from the columns ShiftRows pairs up).  The last
    round has no MixColumns: ``last[r][x]`` is just ``SBOX[x]`` in row
    ``r``.
    """
    mul = {1: list(range(256)), 2: _MUL[2], 3: _MUL[3]}
    circulant = (2, 1, 1, 3)  # MixColumns: coefficient of input row r in output row o
    te = [
        [sum(mul[circulant[(o - r) % 4]][s] << (8 * o) for o in range(4))
         for s in _SBOX_LIST]
        for r in range(4)
    ]
    last = [[s << (8 * r) for s in _SBOX_LIST] for r in range(4)]
    return te, last


_TE_LIST, _LAST_LIST = _round_tables()
_TE = tuple(np.array(t, dtype=_U32) for t in _TE_LIST)
_LAST = tuple(np.array(t, dtype=_U32) for t in _LAST_LIST)
# Pair tables: ``_PAIRS[0][a | b << 8] = T0[a] ^ T1[b]``, ``_PAIRS[1][c |
# d << 8] = T2[c] ^ T3[d]``; the last round's, a half of an output word.
_PAIRS = tuple((_TE[r + 1][:, None] ^ _TE[r]).reshape(-1) for r in (0, 2))
_SBOX_PAIRS = (SBOX[:, None].astype(np.uint16) << np.uint16(8) | SBOX).reshape(-1)

# Counter-mode caching (:meth:`AES128.encrypt_counter_run`), as flat
# indices into the four T-tables: round 1, column c's term from counter
# byte 15 - c (table 3 - c); round 2, byte (j - d) % 4 of round-1 column
# j (through that row's table) is its term in output column d.
_TE_FLAT = np.concatenate(_TE)
_ROUND1_INDEX = 256 * np.arange(3, -1, -1).reshape(4, 1) + np.arange(256)
_J, _D, _V = np.ogrid[:4, :4, :256]
_CACHE_BYTES = 1024 * _J + 4 * _V + (_J - _D) % 4
_CACHE_ROWS = 256 * ((_J - _D) % 4)
del _J, _D, _V

# InvShiftRows as a flat permutation of the 16-byte state, derived by
# inverting ShiftRows.  Byte i of a block holds state cell (row i % 4,
# column i // 4); ShiftRows rotates row r left by r.
_SHIFT_ROWS = np.array(
    [(i % 4) + 4 * (((i // 4) + (i % 4)) % 4) for i in range(16)], dtype=np.intp
)
_INV_SHIFT_ROWS = np.empty(16, dtype=np.intp)
_INV_SHIFT_ROWS[_SHIFT_ROWS] = np.arange(16, dtype=np.intp)


def _expand_key(key: bytes) -> list[int]:
    """FIPS-197 key expansion for AES-128: 44 column words, 4 per round."""
    words = list(_UNPACK_COLUMNS(key))
    sbox = _SBOX_LIST
    rcon = 1
    for i in range(4, 4 * (_NUM_ROUNDS + 1), 4):
        t = words[i - 1]
        # RotWord then SubWord, on a little-endian column word.
        t = (sbox[(t >> 8) & 0xFF] | sbox[(t >> 16) & 0xFF] << 8
             | sbox[t >> 24] << 16 | sbox[t & 0xFF] << 24) ^ rcon
        rcon = _xtime(rcon)
        for j in range(i, i + 4):
            t ^= words[j - 4]
            words.append(t)
    return words


def _inv_mix_columns(state: np.ndarray) -> np.ndarray:
    """InvMixColumns over an (N, 16) state array."""
    v = state.reshape(-1, 4, 4)
    b0, b1, b2, b3 = v[:, :, 0], v[:, :, 1], v[:, :, 2], v[:, :, 3]
    out = np.empty_like(v)
    out[:, :, 0] = _M14[b0] ^ _M11[b1] ^ _M13[b2] ^ _M9[b3]
    out[:, :, 1] = _M9[b0] ^ _M14[b1] ^ _M11[b2] ^ _M13[b3]
    out[:, :, 2] = _M13[b0] ^ _M9[b1] ^ _M14[b2] ^ _M11[b3]
    out[:, :, 3] = _M11[b0] ^ _M13[b1] ^ _M9[b2] ^ _M14[b3]
    return out.reshape(-1, 16)


def round_key_columns(keys: list[bytes]) -> np.ndarray:
    """``(11, 4, len(keys))``: column ``i`` is key ``i``'s schedule."""
    return np.array([_expand_key(k) for k in keys], dtype=_U32).T.reshape(_NUM_ROUNDS + 1, 4, -1)


def _widen(words: np.ndarray) -> np.ndarray:
    """Column words as ``<u8`` words with each byte in a 16-bit lane."""
    return np.ascontiguousarray(words, dtype=_U32).view(np.uint8).astype(np.uint16).view(_U64)


# The gather kernel's state: each byte in a 16-bit lane whose high byte
# is 256 x its row, so a lane *is* its index into the four tables
# concatenated.  Row 0's table entries carry those offsets into every
# output column (the other tables and the round keys leave high bytes
# zero); the last round's entries are bare bytes.
_ROW_OFFSETS = np.uint64(sum(256 * r << 16 * r for r in range(4)))
_GATHER_ROUND = _widen(np.array(_TE_LIST)).reshape(-1)
_GATHER_ROUND[:256] |= _ROW_OFFSETS
_GATHER_LAST = _widen(np.array(_LAST_LIST)).reshape(-1)
# Term r of block i's output column c reads the lane of row r, column
# c + r (ShiftRows); a batch of n rows uses [:, :n].
_ROW, _COL = np.arange(4).reshape(4, 1, 1), np.arange(4)
_GATHER_INDEX = 16 * np.arange(_GATHER_MAX_BLOCKS).reshape(-1, 1) + 4 * ((_COL + _ROW) % 4) + _ROW


def round_key_lanes(round_keys: np.ndarray) -> np.ndarray:
    """:func:`round_key_columns` ``(11, 4, K)`` as ``(11, K, 4)`` lane
    words for :func:`encrypt_gather`; round 0 also sets the row offsets."""
    lanes = _widen(round_keys.transpose(0, 2, 1))
    lanes[0] |= _ROW_OFFSETS
    return lanes


def encrypt_gather(blocks: np.ndarray, key_lanes: np.ndarray) -> np.ndarray:
    """Encrypt an ``(N, 16)`` uint8 array, ``N <= _GATHER_MAX_BLOCKS``, under
    :func:`round_key_lanes`: ``(11, 1, 4)`` for one key, ``(11, N, 4)`` for a key per row.

    A round is one gather of all ``16 N`` table terms (the state lanes,
    permuted by ``_GATHER_INDEX``) and one XOR-reduce of the four
    terms of each column with the round key, laid in as a fifth term for
    all rounds up front: ~3 numpy calls a round against ~9 for
    :func:`encrypt_planes`, whose calls grow less with ``N``.
    """
    n = len(blocks)
    state = blocks.astype(np.uint16)
    words = state.view(_U64)
    np.bitwise_xor(words, key_lanes[0], out=words)
    terms = np.empty((_NUM_ROUNDS, 5, n, 4), dtype=_U64)
    terms[:, 4] = key_lanes[1:]
    index, flat = np.ascontiguousarray(_GATHER_INDEX[:, :n]), state.reshape(-1)
    for rnd in range(_NUM_ROUNDS):
        table = _GATHER_ROUND if rnd < _NUM_ROUNDS - 1 else _GATHER_LAST
        table.take(flat.take(index), out=terms[rnd, :4], mode="wrap")
        np.bitwise_xor.reduce(terms[rnd], axis=0, out=words)
    return state.astype(np.uint8)


def encrypt_rows(blocks: np.ndarray, round_keys: np.ndarray) -> np.ndarray:
    """By batch size, :func:`encrypt_gather` or :func:`encrypt_planes` (its ``round_keys``)."""
    if len(blocks) <= _GATHER_MAX_BLOCKS:
        return encrypt_gather(blocks, round_key_lanes(round_keys))
    return encrypt_planes(blocks, round_keys)


def encrypt_planes(blocks: np.ndarray, round_keys: np.ndarray) -> np.ndarray:
    """Encrypt an ``(N, 16)`` uint8 array under ``round_keys``, ``(11,
    4, 1)`` for one key or ``(11, 4, N)`` for a key per row.

    Four column planes of N words, plus planes 0-2 again as 4-6 so that
    "row r of column c + r" is the plain slice [r:r + 4].
    """
    cur = np.empty((7, len(blocks)), dtype=_U32)
    np.bitwise_xor(blocks.view(_U32).T, round_keys[0], out=cur[:4])
    cur = _planes_rounds(cur, round_keys, range(1, _NUM_ROUNDS + 1))
    return np.ascontiguousarray(cur[:4].T).view(np.uint8)


def _planes_rounds(cur: np.ndarray, rk: np.ndarray, rounds: range) -> np.ndarray:
    """Run ``rounds`` over the planes ``cur`` (:func:`encrypt_planes`; rows
    4-6 are filled here); return the planes holding the result.

    A pair-table index is two state bytes in the low bytes of a zeroed
    ``intp`` word: take() reads it without a cast.  mode="wrap" never wraps
    (every index is in range); it spares take() the bounds pass and the
    buffered write mode="raise" forces on out= (1.2-1.4x at 1 Ki blocks).
    """
    n = cur.shape[1]
    xor = np.bitwise_xor
    nxt = np.empty_like(cur)
    term = np.empty((4, n), dtype=_U32)
    pairs = n >= _PAIR_MIN_BLOCKS
    if pairs:
        index = np.zeros((2, 4, n), dtype=np.intp)
        lanes = index.view(np.uint8).reshape(2, 4, n, -1)
    cur[4:] = cur[:3]
    for rnd in rounds:
        rows = cur.view(np.uint8).reshape(7, n, 4)
        acc = nxt[:4]
        if pairs:
            for r in range(4):  # row r of column c + r: table r // 2, index byte r % 2
                lanes[r // 2, :, :, r % 2] = rows[r:r + 4, :, r]
            if rnd < _NUM_ROUNDS:
                _PAIRS[0].take(index[0], out=acc, mode="wrap")
                xor(acc, _PAIRS[1].take(index[1], out=term, mode="wrap"), out=acc)
            else:
                halves = acc.view(np.uint16).reshape(4, n, 2)
                for half in (0, 1):
                    _SBOX_PAIRS.take(index[half], out=halves[:, :, half], mode="wrap")
        else:
            t0, t1, t2, t3 = _TE if rnd < _NUM_ROUNDS else _LAST
            t0.take(rows[0:4, :, 0], out=acc, mode="wrap")
            xor(acc, t1.take(rows[1:5, :, 1], out=term, mode="wrap"), out=acc)
            xor(acc, t2.take(rows[2:6, :, 2], out=term, mode="wrap"), out=acc)
            xor(acc, t3.take(rows[3:7, :, 3], out=term, mode="wrap"), out=acc)
        xor(acc, rk[rnd], out=acc)
        nxt[4:] = acc[:3]
        cur, nxt = nxt, cur
    return cur


class AES128:
    """AES-128 with precomputed round keys.

    Instances are immutable after construction and safe to share between
    the simulated enclave threads.
    """

    def __init__(self, key: bytes):
        if len(key) != KEY_SIZE:
            raise CryptoError(f"AES-128 requires a {KEY_SIZE}-byte key, got {len(key)}")
        self._words = _expand_key(bytes(key))
        # One (4, 1) column of words per round: broadcasts over the planes.
        self._round_keys = np.array(self._words, dtype=_U32).reshape(_NUM_ROUNDS + 1, 4, 1)
        self._key_lanes = round_key_lanes(self._round_keys)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError("block must be 16 bytes")
        k = self._words
        w0, w1, w2, w3 = _UNPACK_COLUMNS(block)
        w0 ^= k[0]
        w1 ^= k[1]
        w2 ^= k[2]
        w3 ^= k[3]
        t0, t1, t2, t3 = _TE_LIST
        for i in range(4, 4 * _NUM_ROUNDS, 4):
            w0, w1, w2, w3 = (
                t0[w0 & 255] ^ t1[(w1 >> 8) & 255] ^ t2[(w2 >> 16) & 255] ^ t3[w3 >> 24] ^ k[i],
                t0[w1 & 255] ^ t1[(w2 >> 8) & 255] ^ t2[(w3 >> 16) & 255] ^ t3[w0 >> 24] ^ k[i + 1],
                t0[w2 & 255] ^ t1[(w3 >> 8) & 255] ^ t2[(w0 >> 16) & 255] ^ t3[w1 >> 24] ^ k[i + 2],
                t0[w3 & 255] ^ t1[(w0 >> 8) & 255] ^ t2[(w1 >> 16) & 255] ^ t3[w2 >> 24] ^ k[i + 3],
            )
        t0, t1, t2, t3 = _LAST_LIST
        return (
            (t0[w0 & 255] ^ t1[(w1 >> 8) & 255] ^ t2[(w2 >> 16) & 255] ^ t3[w3 >> 24] ^ k[40])
            | (t0[w1 & 255] ^ t1[(w2 >> 8) & 255] ^ t2[(w3 >> 16) & 255] ^ t3[w0 >> 24] ^ k[41]) << 32
            | (t0[w2 & 255] ^ t1[(w3 >> 8) & 255] ^ t2[(w0 >> 16) & 255] ^ t3[w1 >> 24] ^ k[42]) << 64
            | (t0[w3 & 255] ^ t1[(w0 >> 8) & 255] ^ t2[(w1 >> 16) & 255] ^ t3[w2 >> 24] ^ k[43]) << 96
        ).to_bytes(BLOCK_SIZE, "little")

    def encrypt_counter_run(self, initial: bytes, first: int, count: int, prefix: bytes = b"") -> np.ndarray:
        """The ``prefix`` blocks, then counter blocks ``first .. first +
        count - 1`` after ``initial`` (inc32), encrypted as one batch.

        Counter-mode caching (Bernstein and Schwabe, "New AES software
        speed records", 2008): only bytes 12-15 vary, and after round 1
        column ``c`` depends on byte ``15 - c`` alone, so after round 2 the
        state is the XOR of four 256-row tables, one per counter byte.  A
        run is a grid of 256-counter rows: byte 15's table along each row,
        XORed with one word per row for the other three bytes.
        """
        rk, xor, k, t = self._round_keys, np.bitwise_xor, self._words, _TE_LIST
        # Round 1 at counter 0 in ints; then each column's term from its
        # counter byte (row 3 - c of column 3) is swapped for all 256 values.
        w = [a ^ b for a, b in zip(_UNPACK_COLUMNS(initial[:12] + bytes(4)), k)]
        r1 = np.array([t[0][w[c] & 255] ^ t[1][w[c - 3] >> 8 & 255] ^ t[2][w[c - 2] >> 16 & 255]
                       ^ t[3][w[c - 1] >> 24] ^ k[4 + c] for c in range(4)], dtype=_U32)
        key_bytes = np.array([k[3] >> 8 * (3 - c) & 255 for c in range(4)])
        terms = _TE_FLAT.take(_ROUND1_INDEX ^ key_bytes[:, None])
        col1 = terms ^ (terms[:, :1] ^ r1[:, None])
        tables = _TE_FLAT.take(col1.view(np.uint8).reshape(-1).take(_CACHE_BYTES) + _CACHE_ROWS)
        start = (int.from_bytes(initial[12:], "big") + first) % (1 << 32)
        lo, rows = start & 255, np.arange(start >> 8, (start + count - 1 >> 8) + 1) & 0xFFFFFF
        rowterm = (tables[1].take(rows & 255, axis=1) ^ tables[2].take(rows >> 8 & 255, axis=1)
                   ^ tables[3].take(rows >> 16, axis=1) ^ rk[2])
        grid = xor(tables[0][:, None, :], rowterm[:, :, None]).reshape(4, -1)
        lead = len(prefix) // BLOCK_SIZE
        cur = np.empty((7, lead + count), dtype=_U32)
        cur[:4, lead:] = grid[:, lo:lo + count]
        if lead:
            head = np.empty((7, lead), dtype=_U32)
            xor(np.frombuffer(prefix, dtype=_U32).reshape(lead, 4).T, rk[0], out=head[:4])
            cur[:4, :lead] = _planes_rounds(head, rk, range(1, 3))[:4]
        cur = _planes_rounds(cur, rk, range(3, _NUM_ROUNDS + 1))
        return np.ascontiguousarray(cur[:4].T).view(np.uint8)

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt an (N, 16) uint8 array of blocks; returns a new array."""
        if blocks.ndim != 2 or blocks.shape[1] != BLOCK_SIZE:
            raise CryptoError("encrypt_blocks expects an (N, 16) array")
        blocks = np.ascontiguousarray(blocks, dtype=np.uint8)
        n = len(blocks)
        if n <= _SCALAR_MAX_BLOCKS:
            raw = blocks.tobytes()
            out = bytearray().join(
                self.encrypt_block(raw[off:off + BLOCK_SIZE])
                for off in range(0, len(raw), BLOCK_SIZE)
            )
            return np.frombuffer(out, dtype=np.uint8).reshape(n, BLOCK_SIZE)
        if n <= _GATHER_MAX_BLOCKS:
            return encrypt_gather(blocks, self._key_lanes)
        return encrypt_planes(blocks, self._round_keys)

    def decrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Decrypt an (N, 16) uint8 array of blocks; returns a new array."""
        if blocks.ndim != 2 or blocks.shape[1] != BLOCK_SIZE:
            raise CryptoError("decrypt_blocks expects an (N, 16) array")
        rk = self._round_keys.view(np.uint8).reshape(_NUM_ROUNDS + 1, BLOCK_SIZE)
        state = blocks.astype(np.uint8, copy=True)
        state ^= rk[_NUM_ROUNDS]
        state = state[:, _INV_SHIFT_ROWS]
        state = INV_SBOX[state]
        for rnd in range(_NUM_ROUNDS - 1, 0, -1):
            state ^= rk[rnd]
            state = _inv_mix_columns(state)
            state = state[:, _INV_SHIFT_ROWS]
            state = INV_SBOX[state]
        state ^= rk[0]
        return state

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError("block must be 16 bytes")
        arr = np.frombuffer(block, dtype=np.uint8).reshape(1, BLOCK_SIZE)
        return self.decrypt_blocks(arr).tobytes()
