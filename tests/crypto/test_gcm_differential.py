"""Differential check: :mod:`repro.crypto`'s AES-GCM against ``cryptography``.

A second, independent implementation (OpenSSL under the ``cryptography``
package's ``AESGCM`` and an ECB ``Cipher``) checks every execution path
at once: one-shot ``seal`` / ``open_``, a kept cipher, a channel cipher
whose IVs form a rising counter run (the keystream lookahead), a
non-96-bit IV, ``seal_many`` / ``open_many`` on both sides of the group
rule, and record sizes at -1 / 0 / +1 block of every AES, CTR and GHASH
size boundary.  ``cryptography`` is not a dependency of this package: the
module is skipped where it is absent, and the NIST / RFC vectors stay
the gate.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("cryptography")
from cryptography.exceptions import InvalidTag  # noqa: E402
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes  # noqa: E402
from cryptography.hazmat.primitives.ciphers.aead import AESGCM  # noqa: E402

from repro.crypto import aes, ctr, gcm  # noqa: E402
from repro.crypto.aes import AES128  # noqa: E402
from repro.crypto.gcm import AesGcm  # noqa: E402
from repro.errors import IntegrityError  # noqa: E402

EXAMPLES = settings(max_examples=40, deadline=None)


def _around(n_blocks: int) -> list[int]:
    return [16 * (n_blocks - 1), 16 * n_blocks, 16 * (n_blocks + 1)]


#: Record sizes in bytes: small and ragged ones, then -1 / 0 / +1 block of
#: every boundary the kernels switch path at.
SIZES = sorted({
    0, 1, 15, 16, 17, 100,
    *_around(aes._GATHER_MAX_BLOCKS),
    *_around(aes._PAIR_MIN_BLOCKS),
    *_around(ctr._CACHED_MIN_BLOCKS),
    *_around(ctr._STRIPE_BLOCKS + ctr._TAIL_MIN_BLOCKS),
    *_around(gcm._LANE_BUILD_BLOCKS),
    *(size for blocks, _ in gcm._CHANNEL_PASSES if blocks for size in _around(blocks)),
})

keys = st.binary(min_size=16, max_size=16)
ivs = st.binary(min_size=12, max_size=12)
aads = st.binary(max_size=40)
sizes = st.sampled_from(SIZES)
seeds = st.integers(0, 2**32 - 1)


def _plaintext(seed: int, size: int) -> bytes:
    return random.Random(seed).randbytes(size)


def _theirs(key: bytes, iv: bytes, plaintext: bytes, aad: bytes) -> bytes:
    """``iv || tag || ciphertext`` (this package's sealed layout) from ``AESGCM``."""
    sealed = AESGCM(key).encrypt(iv, plaintext, aad)
    return iv + sealed[-16:] + sealed[:-16]


@EXAMPLES
@given(key=keys, iv=ivs, aad=aads, size=sizes, seed=seeds)
def test_one_shot_seal_and_open_match_aesgcm(key, iv, aad, size, seed):
    plaintext = _plaintext(seed, size)
    sealed = _theirs(key, iv, plaintext, aad)
    assert gcm.seal(key, iv, plaintext, aad) == sealed
    assert gcm.open_(key, sealed, aad) == plaintext


@EXAMPLES
@given(key=keys, iv=ivs, aad=aads, size=sizes, seed=seeds)
def test_a_kept_cipher_matches_aesgcm(key, iv, aad, size, seed):
    plaintext = _plaintext(seed, size)
    cipher = AesGcm(key, kept=True)
    for _ in range(2):  # the second record runs on the tables the first built
        sealed = _theirs(key, iv, plaintext, aad)
        assert cipher.seal(iv, plaintext, aad) == sealed
        assert cipher.open(sealed, aad) == plaintext


@EXAMPLES
@given(key=keys, label=st.integers(0, 255), aad=aads,
       record_sizes=st.lists(sizes, min_size=1, max_size=4), seed=seeds)
def test_a_channel_cipher_on_rising_counter_ivs_matches_aesgcm(key, label, aad, record_sizes, seed):
    sender, receiver = AesGcm(key, _counter_label=label), AesGcm(key, _counter_label=label)
    for seq, size in enumerate(record_sizes):
        iv = ctr.counter_prefix(label) + seq.to_bytes(8, "big")
        plaintext = _plaintext(seed + seq, size)
        sealed = _theirs(key, iv, plaintext, aad)
        assert sender.seal(iv, plaintext, aad) == sealed
        assert receiver.open(sealed, aad) == plaintext


@EXAMPLES
@given(key=keys, iv=st.binary(min_size=8, max_size=40).filter(lambda iv: len(iv) != 12),
       aad=aads, size=st.sampled_from([0, 1, 16, 17, 100, 4096]), seed=seeds)
def test_a_non_96_bit_iv_matches_aesgcm(key, iv, aad, size, seed):
    plaintext = _plaintext(seed, size)
    sealed = AESGCM(key).encrypt(iv, plaintext, aad)
    ciphertext, tag = sealed[:-16], sealed[-16:]
    cipher = AesGcm(key)
    assert cipher.encrypt(iv, plaintext, aad) == (ciphertext, tag)
    assert cipher.decrypt(iv, ciphertext, tag, aad) == plaintext


@EXAMPLES
@given(count=st.sampled_from([3, 4]), blocks=st.sampled_from([1, 256, 257]),
       shared_key=st.booleans(), aad=aads, seed=seeds)
def test_seal_many_and_open_many_match_aesgcm(count, blocks, shared_key, aad, seed):
    # Three records stay one by one and four are grouped; a 257-block
    # record is too long for the group and goes alone beside it.
    rnd = random.Random(seed)
    key = rnd.randbytes(16)
    records = [
        (key if shared_key else rnd.randbytes(16), rnd.randbytes(12),
         rnd.randbytes(16 * blocks - rnd.randrange(16)), aad)
        for _ in range(count)
    ]
    want = [_theirs(*record) for record in records]
    assert gcm.seal_many(records) == want
    assert gcm.open_many([(k, sealed, a) for (k, _, _, a), sealed in zip(records, want)]) == [
        p for _, _, p, _ in records
    ]


@EXAMPLES
@given(key=keys, rows=st.integers(1, 3), seed=seeds)
def test_a_few_ecb_rows_match_cryptography(key, rows, seed):
    data = _plaintext(seed, 16 * rows)
    want = Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(data)
    blocks = np.frombuffer(data, dtype=np.uint8).reshape(rows, 16)
    assert AES128(key).encrypt_blocks(blocks).tobytes() == want


@EXAMPLES
@given(key=keys, iv=ivs, aad=aads, size=st.sampled_from([0, 1, 100, 4096]),
       flip=st.integers(0, 15), seed=seeds)
def test_a_flipped_tag_byte_is_rejected_by_both(key, iv, aad, size, flip, seed):
    sealed = bytearray(_theirs(key, iv, _plaintext(seed, size), aad))
    sealed[12 + flip] ^= 0x01
    with pytest.raises(IntegrityError):
        gcm.open_(key, bytes(sealed), aad)
    assert all(isinstance(r, IntegrityError)
               for r in gcm.open_many([(key, bytes(sealed), aad)] * 4))
    tampered = bytes(sealed[28:]) + bytes(sealed[12:28])
    with pytest.raises(InvalidTag):
        AESGCM(key).decrypt(iv, tampered, aad)
