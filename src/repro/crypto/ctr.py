"""AES-128 counter mode, vectorised over whole messages.

CTR is the confidentiality half of GCM.  The keystream is produced by
encrypting runs of counter blocks in numpy batches, which is what makes
the megabyte-scale result ciphertexts of the paper's Fig. 6 sweep feasible
in pure Python.  A batch is at most ``_STRIPE_BLOCKS`` blocks, so the
cipher's temporaries (~110 bytes per block) stay cache-resident and peak
memory does not grow with the message.  Measured per AEAD call, stripes
of 1 Ki / 2 Ki / 4 Ki / 8 Ki blocks / unstriped: 3.1 / 2.6 / 2.2 / 2.4 /
2.4 ms on 64 KiB and 40 / 33 / 35 / 31 / 39 ms on 1 MiB; unstriped also
raised the end-to-end benchmark's peak RSS on 64 KiB records by 13 MiB.

Keystream lookahead.  A batch costs ~70 us before its first block and
0.3 us per block after, so a short record pays mostly for the call.  A
channel direction's IVs are a counter run (:func:`counter_iv`): the
keystream of its *next* records depends on the key and a counter alone, so
:class:`KeystreamAhead` encrypts rows ``iv(seq + i) || 1 .. stride`` for a
window of records in one batch and each record is an XOR against its slot.
Fixed by measurement, no option: ``stride`` = the largest record since the
last refill, ``window = min(16, 1024 // stride)`` slots (16 KiB a direction,
one ``bytes``).  Alternating end-to-end passes at 256 / 512 / 1 Ki / 2 Ki /
4 Ki blocks: 1 KiB hits 1234 / 1280 / 1321 / 1349 / 1351 ops/s, p99 1.38 /
1.40 / 1.61 / 1.57 / 1.53 ms (a 14 x 73 block refill is 0.37 ms, on both
ends of one request); mixed-size cluster batches 1555 / 1526 / 1537 / 1463
/ 1414 (unused slot tails).  A record larger than its slot, a window under
2 (64 KiB records), a sequence number over a window past the last one asked
for (a forged header must not move the window) or a window passing 2^64 - 1
takes :func:`ctr_stream` as before.  Never-reuse: a slot holds exactly the
blocks ``ctr_stream`` computes for that IV, so no (key, IV) is used that the
caller did not ask for, and sealing is served only IVs above all it asked
for before: no slot seals twice (opening may revisit one: forged record k,
then the genuine k).
"""

from __future__ import annotations

import numpy as np

from .aes import AES128, BLOCK_SIZE
from ..errors import CryptoError

_STRIPE_BLOCKS = 4096

# Lookahead: most blocks held per counter run, most records per window.
_AHEAD_BLOCKS = 1024
_AHEAD_WINDOW = 16

# AES batches issued since import (one per stripe); the regression tests
# assert a record that fits one stripe costs exactly one.
aes_batches = 0


def _counter_blocks(initial: bytes, count: int, first: int = 0) -> np.ndarray:
    """Counter blocks ``first .. first + count - 1`` after ``initial``,
    with GCM's inc32 on the last 4 bytes."""
    if len(initial) != BLOCK_SIZE:
        raise CryptoError("initial counter block must be 16 bytes")
    start = (int.from_bytes(initial[12:], "big") + first) % (1 << 32)
    blocks = np.empty((count, BLOCK_SIZE), dtype=np.uint8)
    blocks[:, :12] = np.frombuffer(initial, dtype=np.uint8, count=12)
    # The narrowing cast wraps modulo 2^32; big-endian in the last 4 bytes.
    blocks[:, 12:] = (
        np.arange(start, start + count, dtype=np.uint64).astype(">u4")
        .view(np.uint8).reshape(count, 4)
    )
    return blocks


def ctr_stream(
    cipher: AES128, initial_counter: bytes, data: bytes, lead_blocks: int = 0
) -> tuple[bytes, bytes]:
    """Encrypt or decrypt ``data`` (CTR is an involution), skipping the
    first ``lead_blocks`` keystream blocks; returns ``(those blocks, data
    XOR the keystream that follows them)``.

    GCM passes ``lead_blocks=1`` with ``J0`` as the initial counter: the
    tag mask ``E(J0)`` and the record's keystream come out of the same
    AES batch.
    """
    global aes_batches
    lead_bytes = lead_blocks * BLOCK_SIZE
    n_blocks = lead_blocks + (len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE
    src = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(len(data), dtype=np.uint8)
    lead = b""
    for first in range(0, n_blocks, _STRIPE_BLOCKS):
        count = min(_STRIPE_BLOCKS, n_blocks - first)
        aes_batches += 1
        keystream = cipher.encrypt_blocks(
            _counter_blocks(initial_counter, count, first)
        ).reshape(-1)
        lo = first * BLOCK_SIZE - lead_bytes
        if lo < 0:  # the first stripe; lead_blocks is far below a stripe
            lead = keystream[:lead_bytes].tobytes()
            keystream = keystream[lead_bytes:]
            lo = 0
        hi = min(lo + len(keystream), len(data))
        np.bitwise_xor(src[lo:hi], keystream[:hi - lo], out=out[lo:hi])
    return lead, out.tobytes()


def ctr_transform(cipher: AES128, initial_counter: bytes, data: bytes) -> bytes:
    """Encrypt or decrypt ``data`` under the counter run starting at
    ``initial_counter``."""
    return ctr_stream(cipher, initial_counter, data)[1]


def counter_iv(label: int, seq: int) -> bytes:
    """IV of record ``seq`` of counter run ``label``; the layout lives here."""
    return bytes((label, 0, 0, 0)) + seq.to_bytes(8, "big")


class KeystreamAhead:
    """GCM keystream for the next records of one counter run.  As secret
    as those records: held here only, dropped at the next refill."""

    def __init__(self, cipher: AES128, label: int):
        self._cipher, self._label = cipher, label
        self._first = self._window = self._stride = 0  # slot i covers seq _first + i
        self._keystream = b""   # _window slots of _stride blocks: E(J0), E(J0 + 1), ...
        self._next = 0          # one past the sequence number asked for last
        self._largest = 0       # blocks of the largest record since the last refill

    def stream(self, iv: bytes, data: bytes, once: bool) -> tuple[bytes, bytes] | None:
        """``ctr_stream(cipher, iv || 1, data, lead_blocks=1)`` from the window,
        or None: make that call.  ``once``: sealing, IVs only ever rise."""
        global aes_batches
        seq = int.from_bytes(iv[-8:], "big")
        gap = seq - self._next
        if iv != counter_iv(self._label, seq) or (once and gap < 0):
            return None
        self._next = seq + 1
        need = 1 + -(-len(data) // BLOCK_SIZE)
        self._largest = stride = max(self._largest, need)
        slot = seq - self._first
        if not 0 <= slot < self._window:
            window = min(_AHEAD_WINDOW, _AHEAD_BLOCKS // stride)
            if not 0 <= gap <= _AHEAD_WINDOW or window < 2 or seq + window > 1 << 64:
                self._largest = 0
                return None
            rows = np.empty((window, stride, BLOCK_SIZE), dtype=np.uint8)
            ivs = b"".join(counter_iv(self._label, s) for s in range(seq, seq + window))
            rows[:, :, :12] = np.frombuffer(ivs, dtype=np.uint8).reshape(window, 1, 12)
            rows[:, :, 12:] = np.arange(1, stride + 1, dtype=">u4").view(np.uint8).reshape(stride, 4)
            aes_batches += 1
            self._keystream = self._cipher.encrypt_blocks(rows.reshape(-1, BLOCK_SIZE)).tobytes()
            self._first, self._window, self._stride, self._largest, slot = seq, window, stride, need, 0
        elif need > self._stride:
            return None
        lo = (slot * self._stride + 1) * BLOCK_SIZE
        pad = int.from_bytes(self._keystream[lo:lo + len(data)], "big")
        out = (int.from_bytes(data, "big") ^ pad).to_bytes(len(data), "big")
        return self._keystream[lo - BLOCK_SIZE:lo], out
