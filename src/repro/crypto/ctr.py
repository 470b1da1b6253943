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
"""

from __future__ import annotations

import numpy as np

from .aes import AES128, BLOCK_SIZE
from ..errors import CryptoError

_STRIPE_BLOCKS = 4096

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
