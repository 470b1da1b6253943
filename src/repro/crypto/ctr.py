"""AES-128 counter mode, vectorised over whole messages.

CTR is the confidentiality half of GCM.  The keystream is produced by
encrypting runs of counter blocks in numpy batches, which is what makes
the megabyte-scale result ciphertexts of the paper's Fig. 6 sweep feasible
in pure Python.  A batch is at most ``_STRIPE_BLOCKS`` blocks, so the
cipher's temporaries (~110 bytes per block) stay cache-resident and peak
memory does not grow with the message.  Measured per AEAD call (2c427d1),
stripes of 1 Ki / 2 Ki / 4 Ki / 8 Ki blocks / unstriped: 3.1 / 2.6 / 2.2 /
2.4 / 2.4 ms on 64 KiB and 40 / 33 / 35 / 31 / 39 ms on 1 MiB; unstriped
also raised the end-to-end benchmark's peak RSS on 64 KiB records 13 MiB.
A tail under ``_TAIL_MIN_BLOCKS`` rides in the stripe before it (a 64 KiB
record and its ``J0``: one batch, not two).  From ``_CACHED_MIN_BLOCKS``
blocks a stripe takes :meth:`AES128.encrypt_counter_run`; its time over the
row kernels', caches flushed, median of 150 alternations: 512 blocks 1.03,
768 1.00, 1024 0.98, 1536 0.94 (warm 1.06 / 0.97 / 0.96 / 0.91).

Keystream lookahead.  A batch costs tens of microseconds before its first
block and well under one per block after (:mod:`repro.crypto.aes`), so a
short record pays mostly for the call.  A channel direction's IVs are a
counter run (:func:`counter_prefix`, then the record's 8-byte sequence
number): the keystream of its *next* records depends on the key and a
counter alone, so :class:`KeystreamAhead`
encrypts rows ``iv(seq + i) || 1 .. stride`` for a window of records in
one batch and each record is an XOR against its slot.  Fixed by
measurement, no option: ``stride`` = the largest record since the last
refill, ``window = min(16, 1024 // stride)`` slots (16 KiB a direction,
one ``bytes``; 1 Ki blocks beat 256 / 512 / 2 Ki / 4 Ki end to end).  A
record over ``_AHEAD_MAX_RECORD`` (1024 / 8) blocks never sets the
stride, which would size the next window's slots for it (mixed-size
cluster batches, alternating runs: 1,179 -> 1,323 ops/s with the rule).
It, a record larger than its slot, a sequence number over a window past
the last one asked for (a forged header must not move the window) or a
window passing 2^64 - 1 takes :func:`ctr_stream`.  Never-reuse: a slot
holds exactly the blocks ``ctr_stream`` computes for that IV, so no
(key, IV) is used that the caller did not ask for, and sealing is served
only IVs above all it asked for before: no slot seals twice (opening may
revisit one: forged record k, then the genuine k).
"""

from __future__ import annotations

import numpy as np

from .aes import AES128, BLOCK_SIZE
from ..errors import CryptoError

_STRIPE_BLOCKS = 4096
_TAIL_MIN_BLOCKS = 256
_CACHED_MIN_BLOCKS = 1024

# Lookahead: most blocks held per counter run, most records per window,
# most blocks of a record served from a slot (a larger one never sets
# the stride: the small records after it keep small slots).
_AHEAD_BLOCKS = 1024
_AHEAD_WINDOW = 16
_AHEAD_MAX_RECORD = _AHEAD_BLOCKS // 8

# AES batches issued since import (one per stripe); the regression tests
# assert a record that fits one stripe costs exactly one.
aes_batches = 0


def _counter_blocks(initial: bytes, count: int, first: int = 0, head: bytes = b"") -> np.ndarray:
    """The whole blocks ``head``, then counter blocks ``first .. first +
    count - 1`` after ``initial``, with GCM's inc32 on the last 4 bytes."""
    if len(initial) != BLOCK_SIZE:
        raise CryptoError("initial counter block must be 16 bytes")
    start = (int.from_bytes(initial[12:], "big") + first) % (1 << 32)
    lead = len(head) // BLOCK_SIZE
    words = np.empty((lead + count, 4), dtype=np.uint32)  # a block's bytes as 4 words
    if lead:
        words[:lead] = np.frombuffer(head, dtype=np.uint32).reshape(lead, 4)
    words[lead:, :3] = np.frombuffer(initial, dtype=np.uint32, count=3)
    # The narrowing cast wraps modulo 2^32; big-endian in the last word.
    words[lead:, 3] = np.arange(start, start + count, dtype=np.uint64).astype(">u4").view(np.uint32)
    return words.view(np.uint8)


def ctr_stream(
    cipher: AES128, initial_counter: bytes, data: bytes, lead_blocks: int = 0,
    prefix: bytes = b"",
) -> tuple[bytes, bytes]:
    """Encrypt or decrypt ``data`` (CTR is an involution), skipping the
    first ``lead_blocks`` keystream blocks; returns ``(those blocks, data
    XOR the keystream that follows them)``.  ``prefix`` (whole blocks) is
    encrypted ahead of them in the first batch and returned before them.

    GCM passes ``lead_blocks=1`` with ``J0`` as the initial counter: the
    tag mask ``E(J0)`` and the record's keystream come out of the same
    AES batch (and, for a cipher's first record, ``H = E(0)`` as prefix).
    """
    global aes_batches
    n_blocks = lead_blocks + (len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE
    src = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(len(data), dtype=np.uint8)
    lead, first = b"", 0
    while first < n_blocks:
        count = n_blocks - first  # a tail under _TAIL_MIN_BLOCKS rides in the last stripe
        count = _STRIPE_BLOCKS if count >= _STRIPE_BLOCKS + _TAIL_MIN_BLOCKS else count
        head = prefix if first == 0 else b""
        aes_batches += 1
        if count >= _CACHED_MIN_BLOCKS:
            keystream = cipher.encrypt_counter_run(initial_counter, first, count, head)
        else:
            keystream = cipher.encrypt_blocks(_counter_blocks(initial_counter, count, first, head))
        keystream = keystream.reshape(-1)
        lo = (first - lead_blocks) * BLOCK_SIZE
        if first == 0:  # lead_blocks and prefix are far below a stripe
            skip = len(prefix) + lead_blocks * BLOCK_SIZE
            lead, keystream, lo = keystream[:skip].tobytes(), keystream[skip:], 0
        hi = min(lo + len(keystream), len(data))
        np.bitwise_xor(src[lo:hi], keystream[:hi - lo], out=out[lo:hi])
        first += count
    return lead, out.tobytes()


def counter_prefix(label: int) -> bytes:
    """The 4 bytes every IV of counter run ``label`` starts with; record
    ``seq``'s IV continues with ``seq`` in 8 bytes, big-endian."""
    return bytes((label, 0, 0, 0))


class KeystreamAhead:
    """GCM keystream for the next records of one counter run.  As secret
    as those records: held here only, dropped at the next refill."""

    def __init__(self, cipher: AES128, label: int):
        self._cipher, self._prefix = cipher, counter_prefix(label)
        self._first = self._window = self._stride = 0  # slot i covers seq _first + i
        # _window slots of _stride blocks, E(J0), E(J0 + 1), ..., as one flat byte array.
        self._keystream = np.empty(0, dtype=np.uint8)
        self._next = 0          # one past the sequence number asked for last
        self._largest = 0       # blocks of the largest record since the last refill

    def stream(self, iv: bytes, data: bytes, once: bool) -> tuple[bytes, bytes] | None:
        """``ctr_stream(cipher, iv || 1, data, lead_blocks=1)`` from the window,
        or None: make that call.  ``once``: sealing, IVs only ever rise."""
        global aes_batches
        seq = int.from_bytes(iv[-8:], "big")
        gap = seq - self._next
        if iv[:-8] != self._prefix or (once and gap < 0):
            return None
        self._next = seq + 1
        need = 1 + -(-len(data) // BLOCK_SIZE)  # E(J0), then the record's own blocks
        if need > 1 + _AHEAD_MAX_RECORD:
            return None
        self._largest = stride = max(self._largest, need)
        slot = seq - self._first
        if not 0 <= slot < self._window:
            window = min(_AHEAD_WINDOW, _AHEAD_BLOCKS // stride)
            if not 0 <= gap <= _AHEAD_WINDOW or seq + window > 1 << 64:
                self._largest = 0
                return None
            rows = np.empty((window, stride, BLOCK_SIZE), dtype=np.uint8)
            ivs = b"".join([self._prefix + s.to_bytes(8, "big") for s in range(seq, seq + window)])
            rows[:, :, :12] = np.frombuffer(ivs, dtype=np.uint8).reshape(window, 1, 12)
            rows[:, :, 12:] = np.arange(1, stride + 1, dtype=">u4").view(np.uint8).reshape(stride, 4)
            aes_batches += 1
            self._keystream = self._cipher.encrypt_blocks(rows.reshape(-1, BLOCK_SIZE)).reshape(-1)
            self._first, self._window, self._stride, self._largest, slot = seq, window, stride, need, 0
        elif need > self._stride:
            return None
        lo = (slot * self._stride + 1) * BLOCK_SIZE
        out = np.frombuffer(data, dtype=np.uint8) ^ self._keystream[lo:lo + len(data)]
        return self._keystream[lo - BLOCK_SIZE:lo].tobytes(), out.tobytes()
