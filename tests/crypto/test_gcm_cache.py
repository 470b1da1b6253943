"""Micro-bench and regression tests for GCM setup caching.

BENCH_batch.json attributed ~2.0 s of a 2.17 s wall-clock PUT run to
``channel.encrypt`` + ``channel.decrypt``; nearly all of it was GCM
*setup* (AES key schedule + 16x256 GHASH table) being rebuilt for every
record even though the channel keys never change.  These tests pin the
fix: setup cost is paid once per key, not once per record, and the
cached path is measurably faster than fresh per-record construction.

The kernel's other performance properties are pinned by *counts*, which
no host noise can move: one AES batch per record, each GHASH table built
once per key, the cipher cache least-recently-used and bounded in bytes.
"""

from __future__ import annotations

import hashlib
import random
import time

import pytest

from repro.crypto import ctr, gcm
from repro.crypto.aes import AES128
from repro.crypto.ctr import counter_iv
from repro.crypto.gcm import AesGcm, open_, seal
from repro.errors import CryptoError

NARROW_BLOCKS = gcm._LANE_PASSES[-1][1]   # least blocks for one lane pass
WIDE_BLOCKS = gcm._LANE_PASSES[0][1]      # least blocks for two
BUILD_BLOCKS = gcm._LANE_BUILD_BLOCKS     # least blocks for a key's first lane pass


def _iv(i: int) -> bytes:
    return i.to_bytes(12, "big")


def test_instance_builds_ghash_table_once_across_records():
    cipher = AesGcm(b"\x11" * 16)
    before = gcm.table_builds
    for i in range(50):
        ct, tag = cipher.encrypt(_iv(i), b"payload-%d" % i)
        assert cipher.decrypt(_iv(i), ct, tag) == b"payload-%d" % i
    assert gcm.table_builds - before == 1


def test_seal_open_reuse_one_cipher_per_key():
    key = b"\x22" * 16
    gcm._CIPHER_CACHE.clear()
    before = gcm.table_builds
    blobs = [seal(key, _iv(i), b"record-%d" % i) for i in range(40)]
    for i, blob in enumerate(blobs):
        assert open_(key, blob) == b"record-%d" % i
    # One table build for the whole 80-record run, not 80.
    assert gcm.table_builds - before == 1


def test_cipher_cache_is_bounded():
    gcm._CIPHER_CACHE.clear()
    for i in range(gcm._CIPHER_CACHE_MAX + 40):
        seal(i.to_bytes(16, "big"), _iv(i), b"x")
    assert len(gcm._CIPHER_CACHE) <= gcm._CIPHER_CACHE_MAX


def test_cached_seal_matches_fresh_cipher_and_rejects_tampering():
    key = b"\x33" * 16
    blob = seal(key, _iv(7), b"value", aad=b"meta")
    ct, tag = AesGcm(key).encrypt(_iv(7), b"value", aad=b"meta")
    assert blob == _iv(7) + tag + ct
    tampered = blob[:-1] + bytes([blob[-1] ^ 1])
    try:
        open_(key, tampered, aad=b"meta")
    except Exception as exc:
        assert type(exc).__name__ == "IntegrityError"
    else:  # pragma: no cover
        raise AssertionError("tampered blob verified")


def test_microbench_cached_setup_beats_per_record_setup():
    """Wall-clock micro-bench: N sealed records through the cached path
    must beat N records each paying full setup.  One-block records (a
    wrapped key), because per-key set-up is now cheap enough to vanish
    behind any larger payload; best of three rounds and a lenient margin
    (1.3x, the real ratio is ~2x) so CI noise cannot flip it."""
    key = b"\x44" * 16
    payload = b"p" * 16
    n = 60

    seal(key, _iv(0), payload)  # warm the keyed cache

    cached = fresh = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(n):
            seal(key, _iv(i), payload)
        cached = min(cached, time.perf_counter() - t0)

        t0 = time.perf_counter()
        for i in range(n):
            cipher = AesGcm(key)
            cipher.encrypt(_iv(i), payload)
        fresh = min(fresh, time.perf_counter() - t0)

    assert fresh > cached * 1.3, (
        f"expected cached GCM setup to win: fresh={fresh:.4f}s cached={cached:.4f}s"
    )


# -- count-based regression tests for the kernel's perf properties -----------
@pytest.fixture
def aes_calls(monkeypatch):
    """Counts every entry into the block cipher: a batch of rows, a
    counter run (one batch too) or a single block."""
    calls = {"encrypt_blocks": 0, "encrypt_counter_run": 0, "encrypt_block": 0}
    for name in calls:
        real = getattr(AES128, name)

        def spy(self, *args, _name=name, _real=real):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(AES128, name, spy)
    return calls


def _batches(calls: dict[str, int]) -> int:
    return calls["encrypt_blocks"] + calls["encrypt_counter_run"]


@pytest.mark.parametrize("size", [
    0, 1, 16, 64, 80, 1024,
    16 * (ctr._CACHED_MIN_BLOCKS - 2), 16 * (ctr._CACHED_MIN_BLOCKS - 1),  # J0 + data: the crossover -1 / 0
    16 * (ctr._STRIPE_BLOCKS - 1),
    16 * (ctr._STRIPE_BLOCKS + ctr._TAIL_MIN_BLOCKS - 2),                   # the tail merges
])
def test_one_aes_batch_per_record(aes_calls, monkeypatch, size):
    # Small batches run block by block *inside* encrypt_blocks; count only
    # what the record itself asks of the cipher.
    monkeypatch.setattr("repro.crypto.aes._SCALAR_MAX_BLOCKS", 0)
    cipher = AesGcm(b"\x55" * 16)
    before = ctr.aes_batches

    ct, tag = cipher.encrypt(_iv(1), b"r" * size, b"aad")
    assert _batches(aes_calls) == 1 and aes_calls["encrypt_block"] == 0  # H and E(J0) ride in the batch
    assert cipher.decrypt(_iv(1), ct, tag, b"aad") == b"r" * size
    assert _batches(aes_calls) == 2 and aes_calls["encrypt_block"] == 0
    assert ctr.aes_batches - before == 2
    # A run from the crossover on takes the counter-run kernel, shorter ones the row kernels.
    assert aes_calls["encrypt_counter_run"] == (2 if size >= 16 * (ctr._CACHED_MIN_BLOCKS - 1) else 0)


def test_aes_batches_grow_only_with_stripes(aes_calls):
    cipher = AesGcm(b"\x56" * 16)
    aes_calls.update(encrypt_blocks=0, encrypt_counter_run=0)
    # J0 + 2.5 stripes of data = 3 batches, however many bytes that is.
    cipher.encrypt(_iv(1), b"r" * (16 * (2 * ctr._STRIPE_BLOCKS + ctr._STRIPE_BLOCKS // 2)))
    assert _batches(aes_calls) == 3
    # ... and a tail under _TAIL_MIN_BLOCKS rides in the stripe before it.
    cipher.encrypt(_iv(2), b"r" * (16 * (2 * ctr._STRIPE_BLOCKS + ctr._TAIL_MIN_BLOCKS - 2)))
    assert _batches(aes_calls) == 5


def test_each_table_built_once_per_key_across_scalar_and_bulk_records():
    cipher = AesGcm(b"\x66" * 16)
    scalar, bulk, bulkier = b"s" * 100, b"b" * (16 * NARROW_BLOCKS), b"B" * (16 * WIDE_BLOCKS)

    def roundtrips(payload, count):
        before = gcm.table_builds
        for i in range(count):
            ct, tag = cipher.encrypt(_iv(i), payload, b"aad")
            assert cipher.decrypt(_iv(i), ct, tag, b"aad") == payload
        return gcm.table_builds - before

    assert roundtrips(scalar, 10) == 1    # the byte table
    assert roundtrips(bulk, 10) == 1      # + the narrow lane table
    assert roundtrips(bulkier, 3) == 1    # + the wide one
    assert roundtrips(scalar, 5) + roundtrips(bulk, 5) + roundtrips(bulkier, 2) == 0


@pytest.mark.parametrize("blocks, lane_tables", [
    (NARROW_BLOCKS, 0), (BUILD_BLOCKS - 1, 0), (BUILD_BLOCKS, 1),
])
def test_a_one_record_key_builds_a_lane_table_only_for_a_long_record(blocks, lane_tables):
    # A 64 KiB table (~100 us) to save under 64 scalar steps is a loss for
    # a key that seals one result and is never seen again.
    cipher = AesGcm(b"\x67" * 16)
    before = gcm.table_builds
    cipher.encrypt(_iv(1), b"r" * (16 * blocks))
    assert gcm.table_builds - before == 1 + lane_tables   # the byte table, always
    assert len(cipher._lane_tables) == lane_tables


def test_a_keys_second_short_bulk_record_takes_the_lane_pass():
    payload = b"r" * (16 * NARROW_BLOCKS)
    scalar = AesGcm(b"\x68" * 16).encrypt(_iv(2), payload)   # a key's first: no lanes
    cipher = AesGcm(b"\x68" * 16)
    cipher.encrypt(_iv(1), payload)
    before = gcm.table_builds
    assert cipher.encrypt(_iv(2), payload) == scalar         # not a one-shot key after all
    assert gcm.table_builds - before == 1 and len(cipher._lane_tables) == 1
    cipher.encrypt(_iv(3), payload)
    assert gcm.table_builds - before == 1


CHANNEL_AAD = b"speed/record" + bytes(8)   # 20 bytes, as a channel record's


@pytest.fixture
def scalar_steps(monkeypatch):
    """Blocks hashed by the scalar GHASH step, call by call."""
    steps = []
    real = gcm._ghash_blocks
    monkeypatch.setattr(
        gcm, "_ghash_blocks", lambda m, y, data: steps.append(len(data) // 16) or real(m, y, data)
    )
    return steps


# A channel record's GHASH blocks (AAD, ciphertext, lengths) -> payload bytes.
def _channel_payload(ghash_blocks: int) -> int:
    return 16 * (ghash_blocks - 3) - 5   # a ragged tail


MID_BLOCKS = gcm._CHANNEL_PASSES[1][0]   # least blocks for the 64-lane pass
CHANNEL_SIZES = [0, 1, 100, _channel_payload(16), _channel_payload(17), 1100,
                 _channel_payload(MID_BLOCKS - 1), _channel_payload(MID_BLOCKS),
                 16 * WIDE_BLOCKS + 7, 16 * 1000]


def test_a_channel_record_on_the_fold_path_takes_no_scalar_ghash_step(scalar_steps):
    cipher = AesGcm(b"\x69" * 16, _counter_label=0)
    cipher.encrypt(counter_iv(0, 0), b"r")   # builds its tables: the powers of H, once
    assert sum(scalar_steps) == 15
    scalar_steps.clear()
    # Up to 16 blocks fold directly; beyond, AAD (2 blocks), the ragged
    # tail and the lengths go through the lane passes with the
    # ciphertext, and the 16 lane values fold against the stack.
    for seq, size in enumerate(CHANNEL_SIZES, 1):
        ct, tag = cipher.encrypt(counter_iv(0, seq), b"r" * size, CHANNEL_AAD)
        assert cipher.decrypt(counter_iv(0, seq), ct, tag, CHANNEL_AAD) == b"r" * size
    assert sum(scalar_steps) == 0
    # A plain cipher folds the same 16 lane values by 16 scalar steps.
    plain = AesGcm(b"\x69" * 16)
    plain.encrypt(_iv(0), bytes(16 * BUILD_BLOCKS))
    scalar_steps.clear()
    plain.encrypt(_iv(1), b"r" * 1100, CHANNEL_AAD)
    assert sum(scalar_steps) == 16


def test_each_channel_direction_builds_its_fold_stack_once_and_counts_it():
    cipher = AesGcm(b"\x6a" * 16, _counter_label=0)
    base = AesGcm._BASE_BYTES + AesGcm._LANE_TABLE_BYTES
    rnd = random.Random(6)
    seq = 0

    def records(sizes, count):
        nonlocal seq
        before = gcm.table_builds
        for _ in range(count):
            seq += 1
            cipher.encrypt(counter_iv(0, seq), bytes(rnd.choice(sizes)), CHANNEL_AAD)
        return gcm.table_builds - before

    # Its first record, however short: the byte table (for the powers of
    # H, then dropped), the 16-lane table and the fold stack, once each.
    assert records([1], 1) == 3
    assert cipher._byte_table is None
    assert cipher.footprint == base + AesGcm._FOLD_STACK_BYTES
    assert cipher._fold_stack.nbytes == AesGcm._FOLD_STACK_BYTES
    assert sorted(cipher._lane_tables) == [16]
    assert records(CHANNEL_SIZES[:7], 24) == 0
    # Its first mid-size record adds the 64-lane table, its first
    # 512-block record the 128-lane one; then nothing, at any size.
    assert records([_channel_payload(MID_BLOCKS)], 3) == 1
    assert records([16 * WIDE_BLOCKS + 7], 2) == 1
    assert records(CHANNEL_SIZES, 24) == 0
    assert sorted(cipher._lane_tables) == [16, 64, 128]
    assert cipher.footprint == base + AesGcm._FOLD_STACK_BYTES + 2 * AesGcm._LANE_TABLE_BYTES


def test_only_a_channel_direction_builds_a_fold_stack():
    short = AesGcm(b"\x6b" * 16, _counter_label=1)
    for seq in range(40):   # a direction of short records builds its tables once
        short.encrypt(counter_iv(1, seq), bytes(16 * NARROW_BLOCKS - 1), CHANNEL_AAD)
    assert short._fold_stack is not None and sorted(short._lane_tables) == [16]
    assert short._byte_table is None   # no record of its takes a scalar step
    assert short.footprint == (
        AesGcm._BASE_BYTES + AesGcm._LANE_TABLE_BYTES + AesGcm._FOLD_STACK_BYTES
    )
    lone = AesGcm(b"\x6b" * 16)      # a one-shot key's lone short record: the byte table alone
    before = gcm.table_builds
    lone.encrypt(_iv(0), bytes(16 * NARROW_BLOCKS - 1), CHANNEL_AAD)
    assert gcm.table_builds - before == 1 and not lone._lane_tables and lone._fold_stack is None
    assert lone.footprint == AesGcm._BASE_BYTES + AesGcm._BYTE_TABLE_BYTES
    one_shot = AesGcm(b"\x6b" * 16)   # never a fold stack, however large its records
    for i in range(3):
        one_shot.encrypt(_iv(i), bytes(16 * WIDE_BLOCKS))
    assert one_shot._fold_stack is None


def test_cipher_cache_stays_within_its_byte_bound_and_evicts_lru_first():
    gcm._CIPHER_CACHE.clear()
    keys = [i.to_bytes(16, "big") for i in range(gcm._CIPHER_CACHE_MAX + 40)]
    bulk = b"x" * (16 * BUILD_BLOCKS)  # every cipher grows a lane table
    assert gcm._CIPHER_CACHE_MAX * gcm._CIPHER_FULL_BYTES > gcm._CIPHER_CACHE_BYTES, (
        "the byte bound must be the one that binds here"
    )
    for n, key in enumerate(keys):
        seal(key, _iv(0), bulk)
        if n % 10 == 0:
            seal(keys[0], _iv(n + 1), bulk)  # keep the oldest key in use
        held = sum(c.footprint for c in gcm._CIPHER_CACHE.values())
        assert held <= gcm._CIPHER_CACHE_BYTES
        assert len(gcm._CIPHER_CACHE) <= gcm._CIPHER_CACHE_MAX

    survivors = list(gcm._CIPHER_CACHE)
    assert len(survivors) < len(keys)          # something was evicted ...
    assert keys[0] in survivors                # ... but not the key kept in use,
    assert keys[1] not in survivors            # while its idle neighbour went first
    # and what remains is exactly the most recently used, oldest first.
    recent = [k for k in keys[1:] if k in survivors]
    assert recent == keys[-len(recent):]
    gcm._CIPHER_CACHE.clear()


def test_one_shot_helpers_accept_any_bytes_like_key():
    key = bytes(range(16))
    blob = seal(bytearray(key), _iv(3), b"value", aad=b"meta")
    assert blob == seal(key, _iv(3), b"value", aad=b"meta")
    assert open_(bytearray(key), blob, aad=b"meta") == b"value"
    assert open_(memoryview(key), blob, aad=b"meta") == b"value"


@pytest.mark.parametrize("key_len", [0, 15, 17, 32])
def test_one_shot_helpers_reject_wrong_length_keys_with_a_coded_error(key_len):
    with pytest.raises(CryptoError):
        seal(bytearray(key_len), _iv(1), b"value")
    with pytest.raises(CryptoError):
        open_(bytearray(key_len), bytes(40))
    assert bytes(key_len) not in gcm._CIPHER_CACHE


def test_cipher_cache_eviction_sequence_is_pinned():
    """A fixed trace of seals and opens over 160 keys — one-block, 1 KiB
    and lane-table-growing records, re-used keys — evicts exactly this
    sequence of keys (pinned from summing every footprint per miss)."""
    gcm._CIPHER_CACHE.clear()
    rng = random.Random(2)
    sizes = (16, 1024, 16 * BUILD_BLOCKS, 16 * WIDE_BLOCKS)
    sealed: dict[bytes, bytes] = {}
    evicted = []
    for step in range(400):
        key = rng.randrange(160).to_bytes(16, "big")
        before = list(gcm._CIPHER_CACHE)
        if key in sealed and rng.random() < 0.4:
            open_(key, sealed[key])
        else:
            sealed[key] = seal(key, _iv(step), bytes(rng.choice(sizes)))
        evicted += [k for k in before if k not in gcm._CIPHER_CACHE]
    gcm._CIPHER_CACHE.clear()
    trail = hashlib.sha256(b"".join(evicted)).hexdigest()[:24]
    assert (len(evicted), trail) == (96, "ba8006f4fb2d4949917ab473")
