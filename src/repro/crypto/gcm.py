"""AES-GCM-128 authenticated encryption (NIST SP 800-38D), from scratch.

The paper encrypts every cached computation result with ``AES-GCM-128``
from the SGX SDK crypto library.  This module reproduces that primitive:
CTR for confidentiality (vectorised, :mod:`repro.crypto.ctr`) and GHASH
over GF(2^128) for authenticity.  A record costs one AES batch: the
counter run starts at ``J0`` itself, so the tag mask ``E(J0)`` is block 0
of the same keystream that encrypts the data.  A channel's ciphers, told
their IVs are a counter run, draw both from keystream made a window ahead
(:class:`repro.crypto.ctr.KeystreamAhead`); every byte and check is equal.

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
  blocks and 16 lanes from 64, then the scalar step folds the last 16.
  A key's *first* input under 128 blocks stays scalar: a one-shot key
  skips a build (1 KiB hits 1281 -> 1341 ops/s, PUTs 1430 -> 1610).
  Measured with warm tables, scalar / 16 / 32 / 128 / 128-then-32 /
  128-then-16 lanes: 64 blocks 150 / 50 / 73 / - / - / - us, 1 Ki blocks
  2500 / - / 208 / 303 / 146 / 130 us, 4 Ki blocks (64 KiB) 9100 / - /
  650 / 497 / 339 / 325 us (the parent's 16-lookup loop: 13.3 ms).  The
  thresholds sit where a key used once still breaks even on the build.

All tables are built on first use and kept with the cipher: a channel
endpoint keeps one :class:`AesGcm` per direction for its whole life, and
the one-shot :func:`seal`/:func:`open_` helpers reuse a small
least-recently-used cipher cache bounded in bytes.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .aes import AES128, BLOCK_SIZE
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


# Per-key GHASH table builds since import (byte tables and lane tables
# alike); the regression tests assert caching keeps this flat while
# record counts grow.
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


def _lane_table(h: int) -> np.ndarray:
    """``table[256 * i + b] = (b in byte position i) * h`` as 4096 rows of
    two ``uint64`` (the raw 16 bytes of the product; only ever XORed, so
    the word order is immaterial).  Nibble tables by doubling; each high
    nibble's product, repeated, is then XORed over the low-nibble row."""
    global table_builds
    table_builds += 1
    powers = []
    v = h
    for _ in range(128):
        powers.append(v.to_bytes(BLOCK_SIZE, "big"))
        v = _times_x(v)
    # basis[i, q, j] = x^(8i + 4q + j) * h: position, nibble, bit (MSB first).
    basis = np.frombuffer(b"".join(powers), dtype=np.uint64).reshape(16, 2, 4, 2)
    nibbles = np.zeros((16, 2, 16, 2), dtype=np.uint64)
    for j in (3, 2, 1, 0):
        bit = 8 >> j
        np.bitwise_xor(nibbles[:, :, :bit], basis[:, :, j:j + 1], out=nibbles[:, :, bit:2 * bit])
    table = np.repeat(nibbles[:, 0], 16, axis=1).reshape(16, 16, 32)
    table ^= nibbles[:, 1].reshape(16, 1, 32)
    return table.reshape(4096, 2)


_LANE_TABLE_ROW = (np.arange(BLOCK_SIZE, dtype=np.intp) << 8).reshape(BLOCK_SIZE, 1)


def _lane_pass(table: np.ndarray, lanes: int, y: int, blocks: np.ndarray) -> np.ndarray:
    """Shrink a GHASH input to ``lanes`` blocks with the same digest.

    ``blocks`` is an ``(n, 16)`` byte array with ``n >= lanes``, ``y`` the
    state going in, ``table`` the :func:`_lane_table` of ``H^lanes``.
    Block ``i`` goes to lane ``(i + pad) % lanes``, where ``pad`` leading
    zero blocks (which GHASH ignores) round the message up to whole
    stripes and ``y`` rides in on the first real block.  Each lane is a
    Horner chain in ``H^lanes``, advanced for all lanes at once by one
    gather + XOR-reduce per stripe.  Hashing the returned lane values
    from state 0 under ``H`` gives what hashing ``blocks`` from ``y``
    would have.
    """
    head = len(blocks) % lanes or lanes
    acc = np.zeros((lanes, BLOCK_SIZE), dtype=np.uint8)
    acc[lanes - head:] = blocks[:head]
    acc[lanes - head] ^= np.frombuffer(y.to_bytes(BLOCK_SIZE, "big"), dtype=np.uint8)
    acc_words = acc.view(np.uint64)
    index = np.empty((BLOCK_SIZE, lanes), dtype=np.intp)
    products = np.empty((BLOCK_SIZE, lanes, 2), dtype=np.uint64)
    for stripe in blocks[head:].reshape(-1, lanes, BLOCK_SIZE):
        np.add(acc.T, _LANE_TABLE_ROW, out=index)
        # Indices are (position << 8 | byte) < 4096: "wrap" never wraps,
        # it spares the bounds pass and the buffered write of "raise".
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
    # ints), each lane table.  The cipher cache budgets with these.
    _BASE_BYTES = 3 << 10
    _BYTE_TABLE_BYTES = 13 << 10
    _LANE_TABLE_BYTES = 64 << 10

    def __init__(self, key: bytes, _counter_label: int | None = None):
        """``_counter_label``: every IV will be ``ctr.counter_iv(label, seq)``."""
        self._aes = AES128(key)
        self._ahead = None if _counter_label is None else KeystreamAhead(self._aes, _counter_label)
        self._h = int.from_bytes(self._aes.encrypt_block(bytes(BLOCK_SIZE)), "big")
        self._byte_table: list[int] | None = None      # built on first record
        self._lane_tables: dict[int, np.ndarray] = {}  # lanes -> table, built on first use
        self._bulk_before = False                      # has absorbed a lane-sized input
        self.footprint = self._BASE_BYTES              # approximate bytes kept alive

    def _lane_table(self, lanes: int) -> np.ndarray:
        table = self._lane_tables.get(lanes)
        if table is None:
            power = self._h
            for _ in range(lanes.bit_length() - 1):  # lanes is a power of two
                power = _gf_square(power)
            table = self._lane_tables[lanes] = _lane_table(power)
            self.footprint += self._LANE_TABLE_BYTES
        return table

    def _absorb(self, y: int, data: bytes) -> int:
        """GHASH state ``y`` after ``data`` zero-padded to whole blocks."""
        m = self._byte_table
        if m is None:
            m = self._byte_table = _byte_table(self._h)
            self.footprint += self._BYTE_TABLE_BYTES
        full = len(data) - len(data) % BLOCK_SIZE
        bulk = _LANE_MIN_BLOCKS if self._bulk_before else _LANE_BUILD_BLOCKS
        self._bulk_before |= full >= _LANE_MIN_BLOCKS * BLOCK_SIZE
        if full >= bulk * BLOCK_SIZE:
            blocks = np.frombuffer(data, dtype=np.uint8, count=full).reshape(-1, BLOCK_SIZE)
            for lanes, least in _LANE_PASSES:
                if len(blocks) >= least:
                    blocks = _lane_pass(self._lane_table(lanes), lanes, y, blocks)
                    y = 0
            y = _ghash_blocks(m, 0, blocks.tobytes())
        else:
            y = _ghash_blocks(m, y, data)
        if full < len(data):
            y = _ghash_blocks(m, y, bytes(data[full:]).ljust(BLOCK_SIZE, b"\x00"))
        return y

    def _j0(self, iv: bytes) -> bytes:
        if len(iv) == IV_SIZE:
            return iv + b"\x00\x00\x00\x01"
        y = self._absorb(self._absorb(0, iv), (len(iv) * 8).to_bytes(16, "big"))
        return y.to_bytes(16, "big")

    def _auth(self, aad: bytes, ciphertext: bytes) -> int:
        """GHASH of the record; the tag is this XOR ``E(J0)``."""
        y = self._absorb(self._absorb(0, aad), ciphertext)
        lengths = (len(aad) * 8).to_bytes(8, "big") + (len(ciphertext) * 8).to_bytes(8, "big")
        return self._absorb(y, lengths)

    def _stream(self, iv: bytes, data: bytes, once: bool) -> tuple[bytes, bytes]:
        """``(E(J0), data XOR keystream)``: a lookahead slot, else one AES batch."""
        if not iv:
            raise CryptoError("GCM requires a non-empty IV")
        ahead = self._ahead and self._ahead.stream(iv, data, once)
        return ahead or ctr_stream(self._aes, self._j0(iv), data, lead_blocks=1)

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


# Keyed cipher cache for the one-shot helpers.  Convergent (MLE) result
# keys repeat across PUT/GET of the same tag and sealing keys repeat for
# an enclave's lifetime, so re-running the key schedule and the table
# builds per blob was pure waste.  Least-recently-used, bounded in entries
# and in bytes (a cipher holds ~16 KiB, plus 64 KiB per lane table its
# records have called for).  The cache holds key material already present in
# process memory, so it adds no exposure beyond the caller's own key
# handling.
_CIPHER_CACHE: OrderedDict[bytes, AesGcm] = OrderedDict()
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
    used = _CIPHER_FULL_BYTES + sum(c.footprint for c in _CIPHER_CACHE.values())
    while _CIPHER_CACHE and (
        len(_CIPHER_CACHE) >= _CIPHER_CACHE_MAX or used > _CIPHER_CACHE_BYTES
    ):
        used -= _CIPHER_CACHE.popitem(last=False)[1].footprint
    _CIPHER_CACHE[key] = cipher
    return cipher


def seal(key: bytes, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """One-shot AEAD returning ``iv || tag || ciphertext`` as the paper's
    ``[res]`` notation (ciphertext covering auth code and IV)."""
    ct, tag = _cipher_for(key).encrypt(iv, plaintext, aad)
    return iv + tag + ct


def open_(key: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
    """Inverse of :func:`seal`; raises IntegrityError on tampering."""
    if len(sealed) < IV_SIZE + TAG_SIZE:
        raise IntegrityError("sealed blob too short")
    iv, tag, ct = sealed[:IV_SIZE], sealed[IV_SIZE:IV_SIZE + TAG_SIZE], sealed[IV_SIZE + TAG_SIZE:]
    return _cipher_for(key).decrypt(iv, ct, tag, aad)
