"""AES-GCM-128 authenticated encryption (NIST SP 800-38D), from scratch.

The paper encrypts every cached computation result with ``AES-GCM-128``
from the SGX SDK crypto library.  This module reproduces that primitive:
CTR for confidentiality (vectorised, :mod:`repro.crypto.ctr`) and GHASH
over GF(2^128) for authenticity.  A record costs one AES batch: the
counter run starts at ``J0`` itself, so the tag mask ``E(J0)`` is block 0
of the same keystream that encrypts the data, and a cipher's first record
(96-bit IV) adds the zero block whose image is ``H``.  A channel's
ciphers, told their IVs are a counter run, draw both from keystream made
a window ahead (:class:`repro.crypto.ctr.KeystreamAhead`); every byte
and check is equal.

GHASH strategy.  RCE gives every result its own random key, so per-key
set-up has to be affordable for a key that is used once:

* Short inputs run a scalar Horner step against one 256-entry table
  ``M[b] = b * H`` (~20 us to build by doubling, ~12 KiB): the sixteen
  byte products are summed unreduced in a 248-bit integer and the 120
  overflow bits folded back with four shifts (2.4 us/block; a full
  16 x 256 table steps in 1.4 us but takes 300 us and 210 KiB per key).
* Bulk inputs are shrunk by *lane passes* first.  A pass reads the
  message as ``L`` interleaved lanes, each a Horner chain with
  multiplier ``H^L``; one numpy gather + XOR-reduce against a 64 KiB
  position-by-byte table for ``H^L`` (~85 us to build) advances all
  lanes by a stripe, and the ``L`` lane values that remain are a shorter
  message with the same digest.  ``_LANE_PASSES`` runs 128 lanes from 512
  blocks and 16 lanes from 64, then 16 scalar steps fold the last 16.
  A key's *first* input under 128 blocks stays scalar: a one-shot key
  skips a build (1 KiB hits 1281 -> 1341 ops/s, PUTs 1430 -> 1610).
  Measured with warm tables, scalar / 16 / 32 / 128 / 128-then-32 /
  128-then-16 lanes: 64 blocks 150 / 50 / 73 / - / - / - us, 1 Ki blocks
  2500 / - / 208 / 303 / 146 / 130 us, 4 Ki blocks (64 KiB) 9100 / - /
  650 / 497 / 339 / 325 us (the parent's 16-lookup loop: 13.3 ms).  The
  thresholds sit where a key used once still breaks even on the build.
* Tables are built without a per-bit loop: :func:`_bit_rows` makes the
  rows ``x^j * h`` of all keys at once inside one Python int (SWAR).
  Against 128 ``_times_x`` steps a key (f79c061): 16 keys 449 -> 122 us,
  one key 31 -> 19 us; 16 lane tables 1.31 -> 0.71 ms.
* A kept cipher takes no scalar step: a channel direction or an
  enclave's sealing cipher (a 1 KB WAL segment seal: 332 -> 183 us).
  Its first record builds the fold stack (:meth:`AesGcm._fold`, the
  rows of ``H^16 .. H^1``, 32 KiB; a byte table makes the powers and is
  dropped) and the 16-lane table.
  ``_CHANNEL_PASSES``, by the blocks of AAD, ciphertext and lengths: up
  to 16 the fold alone, then a 16-lane pass first, from 145 a 64-lane
  pass before it, from 512 the 128-lane pass.  64 then 16 lanes against
  16 alone, pairs won of 100, warm / caches flushed: 128 blocks 86 / 53,
  144 63 / 45, 145 93 / 72, 192 98 / 94.  A record's GHASH at f79c061 ->
  here, medians of 300 alternations on a 2-vCPU Xeon, by blocks: 7: 17.0
  -> 9.1 us, 13: 28.8 -> 10.6, 41: 86.5 -> 32.8, 72: 37.2 -> 38.7, 191:
  64.6 -> 54.2, 378: 118.0 -> 76.1, 497: 156.2 -> 92.7.  (At f79c061
  only records of 64 blocks took the lanes and the fold: a 1,100 B record
  55 -> 33 us, the fold 7 us against 28 us for 16 scalar steps; in nibble
  rows, 128 KiB a direction, it took 5.4 us.)

All tables are built on first use and kept with the cipher: a channel
endpoint keeps one :class:`AesGcm` per direction for its whole life, an
enclave one per sealing policy, and the one-shot :func:`seal` /
:func:`open_` reuse a small least-recently-used cipher cache bounded in
bytes.

Many records under many keys.  :func:`seal_many` / :func:`open_many` are
``seal`` / ``open_`` over a batch's records, whose one-shot keys share
nothing.  At least ``_GROUP_MIN_RECORDS`` (4) short records (AAD and
payload within ``_GROUP_MAX_BLOCKS`` = 256 blocks) take one pass: one AES
batch with a key per row makes every ``H``, ``E(J0)`` and keystream, one
call builds every key's lane table (kept for that call only), and one
lane pass runs each record as a lane on its own key's table.  Sealing
cold keys one by one against one group, by record size and count: 1 KiB
x 2 / 3 / 4 / 8 / 16 / 32 records 1.04 / 1.40 / 1.68 / 2.29 / 2.74 /
2.13x, 2 KiB x 2 / 4 / 16 1.16 / 1.79 / 3.15x, 4 KiB x 2 / 4 / 16 0.62 /
1.02 / 1.99x, 8 KiB x 4 / 6 / 16 0.68 / 1.01 / 1.42x (one record takes
lane passes from 128 blocks; a group's chains step block by block).  16 x
1 KiB: 3.6 ms, of it tables 1.3, Horner 0.6, AES 0.4, key schedules 0.3;
with SWAR table builds (alternated against f79c061, 60 of 60 wins) 3.23
-> 2.67 ms, tables 1.31 -> 0.71, key schedules 0.32.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Sequence

import numpy as np

from . import ctr
from .aes import AES128, BLOCK_SIZE, encrypt_rows, round_key_columns
from .constant_time import bytes_eq
from .ctr import KeystreamAhead, ctr_stream
from ..errors import CryptoError, IntegrityError

TAG_SIZE = 16
IV_SIZE = 12

_R = 0xE1000000000000000000000000000000
_MASK128 = (1 << 128) - 1
_MASK120 = (1 << 120) - 1

# (lanes, least whole blocks) per lane pass, widest first; lane counts are
# powers of two.  Measurements in the module docstring.
_LANE_PASSES = ((128, 512), (16, 64))
_LANE_MIN_BLOCKS = _LANE_PASSES[-1][1]
_LANE_BUILD_BLOCKS = 128  # least blocks for a key's first lane pass
# A kept cipher's (least blocks, lane passes) per record, by AAD,
# ciphertext and length blocks, widest first; a record of at most 16
# blocks goes straight to the fold.
_CHANNEL_PASSES = ((512, (128, 16)), (145, (64, 16)), (17, (16,)), (0, ()))


def gf_mult(x: int, y: int) -> int:
    """Bitwise GF(2^128) multiplication (NIST algorithm); used for tests
    and for table construction sanity checks."""
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z & _MASK128


# Per-key GHASH table builds since import (byte tables, lane tables and
# fold stacks alike); the regression tests assert caching keeps this flat
# while record counts grow.
table_builds = 0


def _times_x(v: int) -> int:
    return (v >> 1) ^ _R if v & 1 else v >> 1


def _gf_square(a: int) -> int:
    """``a * a``.  Squaring only spreads the bits apart (parsing the binary
    digits as base 4 does exactly that), leaving a 255-bit product to
    reduce: ``x^128 = x^7 + x^2 + x + 1``, applied twice because the first
    fold can overflow by up to seven bits."""
    wide = int(format(a, "b"), 4) << 1
    low = wide & _MASK128
    fold = (low << 8) ^ (low << 7) ^ (low << 6) ^ (low << 1)
    spill = (fold & 0xFF) << 120
    return (wide >> 128) ^ (fold >> 8) ^ spill ^ (spill >> 1) ^ (spill >> 2) ^ (spill >> 7)


def _byte_table(h: int) -> list[int]:
    """``table[b] = b * h`` for a byte ``b`` in the leading (lowest-degree)
    position, built by doubling from the eight single-bit products."""
    global table_builds
    table_builds += 1
    table = [0] * 256
    v = h
    for bit in (128, 64, 32, 16, 8, 4, 2, 1):
        table[bit] = v
        v = _times_x(v)
    for bit in (2, 4, 8, 16, 32, 64, 128):
        v = table[bit]
        for low in range(1, bit):
            table[bit + low] = v ^ table[low]
    return table


def _ghash_blocks(m: list[int], y: int, data: bytes) -> int:
    """Horner steps ``y = (y ^ block) * H`` over the whole blocks of
    ``data``; ``m`` is :func:`_byte_table` of ``H``.

    Byte ``i`` of the operand carries degrees ``8i .. 8i + 7``, so its
    product belongs ``8i`` bits further right; summing the sixteen
    products in a 248-bit integer leaves 120 overflow bits, which one
    application of ``x^128 = x^7 + x^2 + x + 1`` folds back (degree at
    most 119 + 7, so nothing overflows twice).
    """
    from_bytes = int.from_bytes
    for off in range(0, len(data) - BLOCK_SIZE + 1, BLOCK_SIZE):
        b = (y ^ from_bytes(data[off:off + BLOCK_SIZE], "big")).to_bytes(BLOCK_SIZE, "big")
        wide = (
            m[b[0]] << 120 ^ m[b[1]] << 112 ^ m[b[2]] << 104 ^ m[b[3]] << 96
            ^ m[b[4]] << 88 ^ m[b[5]] << 80 ^ m[b[6]] << 72 ^ m[b[7]] << 64
            ^ m[b[8]] << 56 ^ m[b[9]] << 48 ^ m[b[10]] << 40 ^ m[b[11]] << 32
            ^ m[b[12]] << 24 ^ m[b[13]] << 16 ^ m[b[14]] << 8 ^ m[b[15]]
        )
        low = (wide & _MASK120) << 8
        y = (wide >> 120) ^ low ^ (low >> 1) ^ (low >> 2) ^ (low >> 7)
    return y


def _bit_rows(hs: Sequence[int]) -> np.ndarray:
    """``rows[k, j] = x^j * hs[k]`` for each bit ``j`` of a block (the
    lowest degree, byte 0's top bit, first): two ``uint64`` each, the raw
    16 bytes of the product (only ever XORed, so the word order is
    immaterial).

    SWAR: every ``h`` is a 128-bit lane of one Python int.  Seven one-bit
    steps make rows 0-7 of all keys (a lane's low bit scales ``R``, no
    branch on ``h``); those eight rows, packed side by side, then take
    fifteen ``x^8`` steps (the byte shifted out folds back by
    ``x^128 = x^7 + x^2 + x + 1``, as in :func:`_ghash_blocks`)."""
    k = len(hs)
    ones = ((1 << 128 * k) - 1) // _MASK128  # bit 0 of every lane
    keep = ones * (_MASK128 >> 1)
    v = int.from_bytes(b"".join(h.to_bytes(BLOCK_SIZE, "big") for h in hs), "big")
    base = [v]
    for _ in range(7):
        v = ((v >> 1) & keep) ^ (v & ones) * _R
        base.append(v)
    ones = ((1 << 1024 * k) - 1) // _MASK128  # now eight lanes a key
    low, keep = ones * 0xFF, ones * _MASK120
    v = int.from_bytes(b"".join(row.to_bytes(16 * k, "big") for row in base), "big")
    steps = [v]
    for _ in range(15):
        d = (v & low) << 120
        v = ((v >> 8) & keep) ^ d ^ d >> 1 ^ d >> 2 ^ d >> 7
        steps.append(v)
    words = np.frombuffer(b"".join(w.to_bytes(128 * k, "big") for w in steps), dtype=np.uint64)
    # (x^8 step, one-bit step, key, word) -> (key, bit, word)
    return words.reshape(16, 8, k, 2).transpose(2, 0, 1, 3).reshape(k, 128, 2)


def _lane_tables(hs: Sequence[int]) -> np.ndarray:
    """``table[4096 * k + 256 * i + b] = (b in byte position i) * hs[k]``:
    one block of 4096 rows per ``h``, each row as in :func:`_bit_rows`.
    Nibble tables by doubling; each high nibble's product, repeated, is
    then XORed over the low-nibble row.  All ``hs`` at once: numpy's
    calls are paid once, not once per ``h``."""
    global table_builds
    table_builds += len(hs)
    k = len(hs)
    # basis[k, i, q, j] = x^(8i + 4q + j) * h: key, position, nibble, bit (MSB first).
    basis = _bit_rows(hs).reshape(k, 16, 2, 4, 2)
    nibbles = np.zeros((k, 16, 2, 16, 2), dtype=np.uint64)
    for j in (3, 2, 1, 0):
        bit = 8 >> j
        np.bitwise_xor(
            nibbles[:, :, :, :bit], basis[:, :, :, j:j + 1], out=nibbles[:, :, :, bit:2 * bit]
        )
    table = np.repeat(nibbles[:, :, 0], 16, axis=2).reshape(k, 16, 16, 32)
    table ^= nibbles[:, :, 1].reshape(k, 16, 1, 32)
    return table.reshape(k * 4096, 2)


_LANE_TABLE_ROW = (np.arange(BLOCK_SIZE, dtype=np.intp) << 8).reshape(BLOCK_SIZE, 1)


def _lane_pass(
    table: np.ndarray, lanes: int, blocks: np.ndarray, lead: bytes = b"", trail: bytes = b"",
    rows: np.ndarray = _LANE_TABLE_ROW,
) -> np.ndarray:
    """Shrink the GHASH input ``lead || blocks || trail`` to ``lanes``
    blocks with the same digest.

    ``blocks`` is an ``(n, 16)`` byte array, ``lead`` and ``trail`` whole
    blocks as bytes, ``table`` the :func:`_lane_tables` of ``H^lanes``.
    Block ``i`` of the input goes to lane ``(i + pad) % lanes``, where
    ``pad`` leading zero blocks (which GHASH ignores) round it up to whole
    stripes.  Each lane is a Horner chain in ``H^lanes``, advanced for all
    lanes at once by one gather + XOR-reduce per stripe.  Hashing the
    returned lane values from state 0 under ``H`` gives the input's digest.
    ``blocks`` is read in place: only the stripes it shares with ``lead``
    or ``trail`` are copied, which needs ``n >= 2 * lanes`` when either
    is given and ``n >= lanes`` otherwise.
    ``rows`` (16, 1 or lanes): lane ``c`` gathers position ``i`` from
    row ``rows[i, c]`` on; a key per lane is how :func:`_group_pass` works.
    """
    a, t = len(lead) // BLOCK_SIZE, len(trail) // BLOCK_SIZE
    head = (a + len(blocks) + t) % lanes or lanes
    # blocks[:front] goes in with lead, blocks[back:] with trail.
    front = head - a + -(-max(a - head, 0) // lanes) * lanes
    back = len(blocks) - -t % lanes
    first = np.frombuffer(lead + blocks[:front].tobytes(), dtype=np.uint8).reshape(-1, BLOCK_SIZE)
    last = np.frombuffer(blocks[back:].tobytes() + trail, dtype=np.uint8)
    acc = np.zeros((lanes, BLOCK_SIZE), dtype=np.uint8)
    acc[lanes - head:] = first[:head]
    acc_words = acc.view(np.uint64)
    index = np.empty((BLOCK_SIZE, lanes), dtype=np.intp)
    products = np.empty((BLOCK_SIZE, lanes, 2), dtype=np.uint64)
    for stripe in itertools.chain(
        first[head:].reshape(-1, lanes, BLOCK_SIZE),
        blocks[front:back].reshape(-1, lanes, BLOCK_SIZE),
        last.reshape(-1, lanes, BLOCK_SIZE),
    ):
        np.add(acc.T, rows, out=index)
        # Every index is a row of ``table``: "wrap" never wraps, it
        # spares the bounds pass and the buffered write of "raise".
        table.take(index, axis=0, out=products, mode="wrap")
        np.bitwise_xor.reduce(products, axis=0, out=acc_words)
        np.bitwise_xor(acc, stripe, out=acc)
    return acc


class AesGcm:
    """AES-GCM-128 AEAD with 12-byte IVs and 16-byte tags.

    Mirrors the interface of the SGX SDK's ``sgx_rijndael128GCM_*``
    functions used by the paper's prototype.
    """

    # Estimated bytes held: key schedule, byte table (256 boxed 128-bit
    # ints), each lane table, a kept cipher's fold stack.  The cipher cache
    # budgets with these.
    _BASE_BYTES = 3 << 10
    _BYTE_TABLE_BYTES = 13 << 10
    _LANE_TABLE_BYTES = 64 << 10
    _FOLD_STACK_BYTES = 32 << 10

    def __init__(self, key: bytes, _counter_label: int | None = None, kept: bool = False):
        """``kept``: held for life, so the fold stack pays (:meth:`_fold`);
        ``_counter_label``: every IV is ``ctr.counter_iv(label, seq)`` (kept)."""
        self._aes = AES128(key)
        self._ahead = None if _counter_label is None else KeystreamAhead(self._aes, _counter_label)
        self._kept = kept or self._ahead is not None
        self._h: int | None = None                     # H = E(0), see _hash_key
        self._byte_table: list[int] | None = None      # built on first record
        self._lane_tables: dict[int, np.ndarray] = {}  # lanes -> table, built on first use
        self._fold_stack: np.ndarray | None = None     # a kept cipher's, see _fold
        self._bulk_before = False                      # has absorbed a lane-sized input
        self.footprint = self._BASE_BYTES              # approximate bytes kept alive
        self._cache: _CipherCache | None = None        # the cache holding it, if any

    def _grow(self, n_bytes: int) -> None:
        self.footprint += n_bytes
        if self._cache is not None:
            self._cache.held += n_bytes

    def _hash_key(self) -> int:
        """``H = E(0)``, if no AES batch has made it yet (:meth:`_stream`)."""
        if self._h is None:
            self._h = int.from_bytes(self._aes.encrypt_block(bytes(BLOCK_SIZE)), "big")
        return self._h

    def _scalar_table(self) -> list[int]:
        m = self._byte_table
        if m is None:
            m = self._byte_table = _byte_table(self._hash_key())
            self._grow(self._BYTE_TABLE_BYTES)
        return m

    def _lane_table(self, lanes: int) -> np.ndarray:
        table = self._lane_tables.get(lanes)
        if table is None:
            power = self._hash_key()
            for _ in range(lanes.bit_length() - 1):  # lanes is a power of two
                power = _gf_square(power)
            table = self._lane_tables[lanes] = _lane_tables([power])
            self._grow(self._LANE_TABLE_BYTES)
        return table

    def _build_fold_stack(self) -> None:
        """A kept cipher's fold stack, the :func:`_bit_rows` of
        ``H^16 .. H^1`` (32 KiB; the powers take 15 scalar steps, once),
        and its 16-lane table."""
        global table_builds
        table_builds += 1
        m = _byte_table(self._hash_key())  # not kept: a kept cipher takes no scalar step
        powers = [self._h]
        while len(powers) < 16:
            powers.append(_ghash_blocks(m, powers[-1], bytes(BLOCK_SIZE)))
        # Word-major, so the XOR-reduce runs along contiguous rows.
        self._fold_stack = np.ascontiguousarray(_bit_rows(powers[::-1]).reshape(-1, 2).T)
        self._grow(self._FOLD_STACK_BYTES)
        self._lane_table(16)

    def _fold(self, blocks: np.ndarray) -> int:
        """GHASH of at most 16 blocks: block ``l`` from the end times
        ``H^(l + 1)``.  On a kept cipher each bit, 0 or 1, scales its row
        of the fold stack and one XOR-reduce sums what is left; a one-shot
        key would not repay the stack, so any other cipher takes scalar
        steps."""
        if not self._kept:
            return _ghash_blocks(self._scalar_table(), 0, bytes(blocks))
        bits = np.unpackbits(blocks)
        words = np.bitwise_xor.reduce(self._fold_stack[:, -len(bits):] * bits, axis=1)
        return int.from_bytes(words.tobytes(), "big")

    def _ghash(self, lead: bytes, data: bytes, trail: bytes) -> int:
        """GHASH of ``lead``, the whole blocks of ``data`` and ``trail``
        (``lead`` and ``trail`` whole blocks).  A kept cipher takes its
        ``_CHANNEL_PASSES`` tier by the blocks of all three.  Any other
        cipher takes the scalar step below ``_LANE_MIN_BLOCKS`` whole
        blocks of ``data`` (``_LANE_BUILD_BLOCKS`` for a key's first such
        input), else ``_LANE_PASSES``.  Lane passes read ``data`` in place
        unless it is too short to fill two stripes of the first pass; the
        16 values they leave are folded (:meth:`_fold`)."""
        full = len(data) // BLOCK_SIZE
        bulk = full >= (_LANE_MIN_BLOCKS if self._bulk_before else _LANE_BUILD_BLOCKS)
        self._bulk_before |= full >= _LANE_MIN_BLOCKS
        if self._kept:
            if self._fold_stack is None:
                self._build_fold_stack()
            total = (len(lead) + len(data) + len(trail)) // BLOCK_SIZE
            passes = next(p for least, p in _CHANNEL_PASSES if total >= least)
        elif bulk:
            passes = tuple(lanes for lanes, least in _LANE_PASSES if full >= least)
        else:
            m = self._scalar_table()
            return _ghash_blocks(m, _ghash_blocks(m, _ghash_blocks(m, 0, lead), data), trail)
        if not passes or full < 2 * passes[0]:
            data, lead, trail = lead + bytes(data[:full * BLOCK_SIZE]) + trail, b"", b""
            full = len(data) // BLOCK_SIZE
            if not passes:
                return self._fold(np.frombuffer(data, dtype=np.uint8))
        blocks = np.frombuffer(data, np.uint8, full * BLOCK_SIZE).reshape(-1, BLOCK_SIZE)
        for lanes in passes:
            blocks = _lane_pass(self._lane_table(lanes), lanes, blocks, lead, trail)
            lead = trail = b""
        return self._fold(blocks)

    def _j0(self, iv: bytes) -> bytes:
        if len(iv) == IV_SIZE:
            return iv + b"\x00\x00\x00\x01"
        padded = bytes(iv) + bytes(-len(iv) % BLOCK_SIZE)
        return self._ghash(b"", padded, (len(iv) * 8).to_bytes(16, "big")).to_bytes(16, "big")

    def _auth(self, aad: bytes, ciphertext: bytes) -> int:
        """GHASH of the record; the tag is this XOR ``E(J0)``."""
        full = len(ciphertext) - len(ciphertext) % BLOCK_SIZE
        trail = bytes(ciphertext[full:]) + bytes(-len(ciphertext) % BLOCK_SIZE)
        lengths = (len(aad) * 8).to_bytes(8, "big") + (len(ciphertext) * 8).to_bytes(8, "big")
        return self._ghash(bytes(aad) + bytes(-len(aad) % BLOCK_SIZE), ciphertext, trail + lengths)

    def _stream(self, iv: bytes, data: bytes, once: bool) -> tuple[bytes, bytes]:
        """``(E(J0), data XOR keystream)``: a lookahead slot, else one AES
        batch, which also makes ``H`` for a cipher's first 96-bit IV."""
        if not iv:
            raise CryptoError("GCM requires a non-empty IV")
        ahead = self._ahead and self._ahead.stream(iv, data, once)
        if ahead:
            return ahead
        if self._h is None and len(iv) == IV_SIZE:
            zero = bytes(BLOCK_SIZE)  # its image is H
            lead, out = ctr_stream(self._aes, self._j0(iv), data, lead_blocks=1, prefix=zero)
            self._h = int.from_bytes(lead[:BLOCK_SIZE], "big")
            return lead[BLOCK_SIZE:], out
        return ctr_stream(self._aes, self._j0(iv), data, lead_blocks=1)

    def encrypt(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> tuple[bytes, bytes]:
        """Return ``(ciphertext, tag)``."""
        mask, ciphertext = self._stream(iv, plaintext, once=True)
        tag = self._auth(aad, ciphertext) ^ int.from_bytes(mask, "big")
        return ciphertext, tag.to_bytes(TAG_SIZE, "big")

    def decrypt(self, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
        """Verify ``tag`` and return the plaintext; raise IntegrityError on
        any mismatch (the ``⊥`` of the paper's Fig. 3)."""
        mask, plaintext = self._stream(iv, ciphertext, once=False)
        expected = self._auth(aad, ciphertext) ^ int.from_bytes(mask, "big")
        if len(tag) != TAG_SIZE or not bytes_eq(expected.to_bytes(TAG_SIZE, "big"), tag):
            raise IntegrityError("GCM tag verification failed")
        return plaintext

    def seal(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """``iv || tag || ciphertext``, the paper's ``[res]`` notation."""
        ct, tag = self.encrypt(iv, plaintext, aad)
        return iv + tag + ct

    def open(self, sealed: bytes, aad: bytes = b"") -> bytes:
        """Inverse of :meth:`seal`; raises IntegrityError on tampering."""
        if len(sealed) < IV_SIZE + TAG_SIZE:
            raise IntegrityError("sealed blob too short")
        iv, tag, ct = sealed[:IV_SIZE], sealed[IV_SIZE:IV_SIZE + TAG_SIZE], sealed[IV_SIZE + TAG_SIZE:]
        return self.decrypt(iv, ct, tag, aad)


class _CipherCache(OrderedDict):
    """Least recently used first, keeping ``held``: the summed footprint
    of its ciphers, as they enter, grow (:meth:`AesGcm._grow`) and leave."""

    held = 0

    def __setitem__(self, key, cipher):
        super().__setitem__(key, cipher)
        cipher._cache = self
        self.held += cipher.footprint

    def popitem(self, last=True):
        key, cipher = super().popitem(last)
        cipher._cache = None
        self.held -= cipher.footprint
        return key, cipher

    def clear(self):
        while self:
            self.popitem()


# Keyed cipher cache for the one-shot helpers.  Convergent (MLE) result
# keys repeat across PUT/GET of the same tag and sealing keys repeat for
# an enclave's lifetime, so re-running the key schedule and the table
# builds per blob was pure waste.  Least-recently-used, bounded in entries
# and in bytes (a cipher holds ~16 KiB, plus 64 KiB per lane table its
# records have called for).  The cache holds key material already present in
# process memory, so it adds no exposure beyond the caller's own key
# handling.
_CIPHER_CACHE = _CipherCache()
_CIPHER_CACHE_MAX = 128
_CIPHER_CACHE_BYTES = 8 << 20
_CIPHER_FULL_BYTES = (
    AesGcm._BASE_BYTES + AesGcm._BYTE_TABLE_BYTES
    + AesGcm._LANE_TABLE_BYTES * len(_LANE_PASSES)
)


def _cipher_for(key: bytes) -> AesGcm:
    key = bytes(key)
    cipher = _CIPHER_CACHE.get(key)
    if cipher is not None:
        _CIPHER_CACHE.move_to_end(key)
        return cipher
    cipher = AesGcm(key)
    # Tables are built after insertion, so budget the newcomer at full size.
    while _CIPHER_CACHE and (
        len(_CIPHER_CACHE) >= _CIPHER_CACHE_MAX
        or _CIPHER_FULL_BYTES + _CIPHER_CACHE.held > _CIPHER_CACHE_BYTES
    ):
        _CIPHER_CACHE.popitem(last=False)
    _CIPHER_CACHE[key] = cipher
    return cipher


def seal(key: bytes, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """One-shot :meth:`AesGcm.seal` (ciphertext covering auth code and IV)."""
    return _cipher_for(key).seal(iv, plaintext, aad)


def open_(key: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
    """Inverse of :func:`seal`; raises IntegrityError on tampering."""
    return _cipher_for(key).open(sealed, aad)


# -- many records under many keys ----------------------------------------------
# Fixed by measurement (module docstring), not options.
_GROUP_MIN_RECORDS = 4
_GROUP_MAX_BLOCKS = 256


def _short(key, iv, size: int, aad) -> bool:
    blocks = -(-len(aad) // BLOCK_SIZE) + -(-size // BLOCK_SIZE)
    return len(key) == 16 and len(iv) == IV_SIZE and blocks <= _GROUP_MAX_BLOCKS


def _group_pass(keys, ivs, payloads, aads, sealing: bool) -> tuple[list[bytes], np.ndarray]:
    """``(payload XOR keystream per record, the (n, 16) tags)`` of many
    records, each under its own key; sealing hashes the ciphertexts made
    here, opening the payloads as given.  One AES batch, in stripes: a
    zero row per distinct key (its ``H``), a ``J0`` row per record, then
    every counter block, each row under its own key's round keys.  One
    GHASH: the records are the lanes of a :func:`_lane_pass`, each on its
    own key's table (built here, dropped after), right-aligned behind zero
    blocks, with a zero stripe last for the final multiplication by ``H``.
    """
    slot_of: dict[bytes, int] = {}
    slots = np.array([slot_of.setdefault(bytes(k), len(slot_of)) for k in keys], dtype=np.intp)
    n_keys, n = len(slot_of), len(keys)
    counts = np.array([-(-len(p) // BLOCK_SIZE) for p in payloads], dtype=np.intp)
    starts = np.cumsum(counts) - counts
    first = n_keys + n
    blocks = np.zeros((first + int(counts.sum()), BLOCK_SIZE), dtype=np.uint8)
    iv_rows = np.frombuffer(b"".join(map(bytes, ivs)), dtype=np.uint8).reshape(n, IV_SIZE)
    blocks[n_keys:first, :IV_SIZE], blocks[n_keys:first, -1] = iv_rows, 1
    blocks[first:, :IV_SIZE] = np.repeat(iv_rows, counts, axis=0)
    counter = np.arange(2, len(blocks) - first + 2) - np.repeat(starts, counts)
    blocks[first:, IV_SIZE:] = counter.astype(">u4").view(np.uint8).reshape(-1, 4)
    row_keys = np.concatenate([np.arange(n_keys), slots, np.repeat(slots, counts)])
    round_keys = round_key_columns(list(slot_of))
    keystream = np.empty_like(blocks)
    for lo in range(0, len(blocks), ctr._STRIPE_BLOCKS):
        hi = lo + ctr._STRIPE_BLOCKS
        ctr.aes_batches += 1
        keystream[lo:hi] = encrypt_rows(blocks[lo:hi], round_keys[:, :, row_keys[lo:hi]])

    padded = b"".join(bytes(p) + bytes(-len(p) % BLOCK_SIZE) for p in payloads)
    xored = (np.frombuffer(padded, dtype=np.uint8) ^ keystream[first:].reshape(-1)).tobytes()
    outputs = [xored[16 * s:16 * s + len(p)] for s, p in zip(starts.tolist(), payloads)]
    messages = [
        bytes(a) + bytes(-len(a) % BLOCK_SIZE) + bytes(c) + bytes(-len(c) % BLOCK_SIZE)
        + (8 * len(a)).to_bytes(8, "big") + (8 * len(c)).to_bytes(8, "big")
        for a, c in zip(aads, outputs if sealing else payloads)
    ]
    width = max(map(len, messages)) + BLOCK_SIZE
    lanes = b"".join(bytes(width - BLOCK_SIZE - len(m)) + m + bytes(BLOCK_SIZE) for m in messages)
    stripes = np.frombuffer(lanes, dtype=np.uint8).reshape(n, -1, BLOCK_SIZE).transpose(1, 0, 2)
    tables = _lane_tables([int.from_bytes(row.tobytes(), "big") for row in keystream[:n_keys]])
    digests = _lane_pass(
        tables, n, np.ascontiguousarray(stripes).reshape(-1, BLOCK_SIZE),
        rows=_LANE_TABLE_ROW + 4096 * slots,
    )
    return outputs, digests ^ keystream[n_keys:first]


def _grouped(records, short: list[bool], group, one) -> list:
    """``group`` over the short records if there are enough, ``one`` over
    each of the rest (its IntegrityError as the result); in record order."""
    chosen = [i for i, ok in enumerate(short) if ok]
    chosen = chosen if len(chosen) >= _GROUP_MIN_RECORDS else []
    done = dict(zip(chosen, group([records[i] for i in chosen]) if chosen else ()))
    out = []
    for i, record in enumerate(records):
        try:
            out.append(done[i] if i in done else one(*record))
        except IntegrityError as exc:
            out.append(exc)
    return out


def seal_many(records: Sequence[tuple[bytes, bytes, bytes, bytes]]) -> list[bytes]:
    """:func:`seal` of each ``(key, iv, plaintext, aad)``; keys may differ."""
    def group(chosen):
        keys, ivs, plaintexts, aads = zip(*chosen)
        cts, tags = _group_pass(keys, ivs, plaintexts, aads, sealing=True)
        return [bytes(iv) + tag.tobytes() + ct for iv, tag, ct in zip(ivs, tags, cts)]

    short = [_short(k, iv, len(p), a) for k, iv, p, a in records]
    return _grouped(records, short, group, seal)


def open_many(records: Sequence[tuple[bytes, bytes, bytes]]) -> list:
    """:func:`open_` of each ``(key, sealed, aad)``: its plaintext, or the
    :class:`IntegrityError` that ``open_`` would raise; each fails alone."""
    head = IV_SIZE + TAG_SIZE

    def group(chosen):
        keys, blobs, aads = zip(*chosen)
        plaintexts, tags = _group_pass(
            keys, [b[:IV_SIZE] for b in blobs], [b[head:] for b in blobs], aads, sealing=False
        )
        good = [bytes_eq(t.tobytes(), b[IV_SIZE:head]) for t, b in zip(tags, blobs)]
        failed = "GCM tag verification failed"
        return [p if ok else IntegrityError(failed) for p, ok in zip(plaintexts, good)]

    short = [len(b) >= head and _short(k, b[:IV_SIZE], len(b) - head, a) for k, b, a in records]
    return _grouped(records, short, group, open_)
