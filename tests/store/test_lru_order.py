"""The LRU victim is the head of the dictionary's recency order.

``MetadataDict`` keeps its entries in recency order, so LRU eviction
reads a head instead of scanning.  The reference is the scan it replaced,
``LruPolicy.select_victim``: ``min`` over the entries by
``last_access_seq``, the first in insertion order among equals.  Every
route that moves an entry's recency is exercised against it: GET, PUT,
eviction, discard, ``touch_restore`` (WAL replay of a recency mark),
snapshot restore (entries carrying old sequence numbers), and power
failure followed by recovery.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashes import sha256
from repro.durable.wal import REC_TOUCH, WalRecord
from repro.net.messages import GetRequest
from repro.store.eviction import LruPolicy
from repro.store.metadata import MetadataDict, MetadataEntry
from repro.store.persistence import restore_store, snapshot_store

from ..durable.conftest import durable_deployment, make_put


def _reference(metadata):
    return LruPolicy().select_victim(metadata.entries())


def _entry(tag: bytes, **seqs) -> MetadataEntry:
    return MetadataEntry(
        tag=tag, challenge=b"", wrapped_key=b"", blob_ref=0, blob_digest=b"",
        size=len(tag), app_id="a", **seqs,
    )


# -- the dictionary alone ----------------------------------------------------------

DICT_OPS = st.lists(
    st.tuples(
        st.sampled_from(["put", "restore", "get", "touch", "remove", "evict"]),
        st.integers(0, 9),   # which tag
        st.integers(1, 40),  # a restored entry's sequence number (ties included)
    ),
    max_size=60,
)


@given(DICT_OPS)
@settings(max_examples=200, deadline=None)
def test_the_head_is_the_reference_victim_after_every_operation(ops):
    d = MetadataDict()
    for op, i, seq in ops:
        tag = bytes([i])
        if op == "put" and tag not in d:
            d.put(_entry(tag))
        elif op == "restore" and tag not in d:
            d.put(_entry(tag, hits=1, insert_seq=seq, last_access_seq=seq))
        elif op == "get":
            d.get(tag)
        elif op == "touch":
            d.touch_restore(tag, hits=3)
        elif op == "remove" and tag in d:
            d.remove(tag)
        elif op == "evict" and len(d):
            d.remove(d.least_recent().tag)
        if len(d):
            assert d.least_recent() is _reference(d)
        assert d.total_bytes() == sum(e.size for e in d.entries())


def test_an_empty_dictionary_has_no_victim():
    from repro.errors import StoreError

    with pytest.raises(StoreError):
        MetadataDict().least_recent()


def test_a_get_only_run_holds_no_more_memory():
    d = MetadataDict()
    tags = [bytes([i]) * 32 for i in range(64)]
    for tag in tags:
        d.put(_entry(tag))
    for i in range(2000):
        d.get(tags[i * 7 % 64])
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        for i in range(50_000):
            d.get(tags[i * 7 % 64])
        grown = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    # Not a byte per GET; a lazily-pruned heap would hold ~50,000 stale stamps (MiBs).
    assert grown < 64 << 10
    assert d.least_recent() is _reference(d)


# -- a durable store, every route --------------------------------------------------

STORE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["put", "put", "get", "get", "discard", "touch", "snapshot", "restore",
                         "crash"]),
        st.integers(0, 9),
    ),
    max_size=30,
)


def _victims(ops) -> list[bytes]:
    """Run ``ops`` on a durable store of four entries; every eviction
    asserts its victim is the reference's, and the head is checked after
    every step.  Returns the victims' tags in order."""
    victims = []

    def checked(self, metadata):
        got = metadata.least_recent()
        assert got is _reference(metadata)
        victims.append(got.tag)
        return got

    real = LruPolicy.victim
    LruPolicy.victim = checked
    try:
        d, client = durable_deployment(
            b"lru-order", capacity_entries=4, wal_group_commit=2, checkpoint_interval=7,
            recency_log_interval=1,
        )
        store = d.store
        snapshotted = False
        for op, i in ops:
            label = bytes([i])
            tag = sha256(b"durable" + label)
            if op == "put":
                client.call(make_put(label))
            elif op == "get":
                client.call(GetRequest(tag=tag, app_id="wal-client"))
            elif op == "discard":
                store.discard_tags([tag])
            elif op == "touch":
                with store.ecall("test-touch"):
                    store.replay_touch(WalRecord(REC_TOUCH, tag, hits=i))
            elif op == "snapshot":
                snapshot_store(store)
                snapshotted = True
            elif op == "restore" and snapshotted:
                restore_store(store)
            elif op == "crash":
                store.power_fail()
                store.recover()
            with store.ecall("test-check"):
                if len(store):
                    assert store._dict.least_recent() is _reference(store._dict)
    finally:
        LruPolicy.victim = real
    return victims


@given(STORE_OPS)
@settings(max_examples=25, deadline=None)
def test_every_eviction_takes_the_reference_victim(ops):
    _victims(ops)


def test_restored_entries_with_old_stamps_are_evicted_in_place():
    # Fill, warm two, snapshot; drop those two and refill, so the restore
    # brings back entries whose stamps are older than live ones; then
    # crash and recover, and keep putting.
    puts = [("put", i) for i in range(4)]
    ops = puts + [("get", 0), ("get", 2), ("snapshot", 0), ("discard", 0), ("discard", 2),
                  ("put", 5), ("put", 6), ("get", 1), ("restore", 0), ("put", 7),
                  ("crash", 0), ("get", 3), ("put", 8), ("put", 9)]
    assert len(_victims(ops)) >= 5
