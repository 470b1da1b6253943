"""Snapshot/restore preserves eviction-policy state.

A restored store must make the same eviction decisions the original
would have: LRU needs each entry's recency, LFU its hit count, FIFO its
insertion order — all carried by the v2 snapshot format.  Before that
fix a restore silently reset every entry to "just inserted, never hit",
so the first post-restart eviction could throw out the hottest entry.
"""

from repro import Deployment
from repro.crypto.hashes import sha256
from repro.net.messages import GetRequest, PutRequest
from repro.store.persistence import restore_store, snapshot_store
from repro.store.quota import QuotaPolicy
from repro.store.resultstore import StoreConfig


def make_store(seed: bytes, **config_kwargs):
    d = Deployment(seed=seed, store_config=StoreConfig(**config_kwargs))
    enclave = d.platform.create_enclave("restore-client", b"restore-code")
    client = d.store.connect("restore-addr", app_enclave=enclave)
    return d, client


def put(client, label: bytes, size: int = 32) -> bytes:
    tag = sha256(b"restore" + label)
    response = client.call(PutRequest(
        tag=tag, challenge=b"r" * 32, wrapped_key=b"k" * 16,
        sealed_result=(b"blob-" + label).ljust(size, b"."),
        app_id="restore-client",
    ))
    return tag if response.accepted else None


def warm(client, tag: bytes, times: int = 1) -> None:
    for _ in range(times):
        assert client.call(
            GetRequest(tag=tag, app_id="restore-client")
        ).found


def restored_copy(d, seed: bytes, **config_kwargs):
    """Snapshot ``d`` and restore into a fresh same-platform deployment."""
    blob = snapshot_store(d.store)
    fresh, client = make_store(seed, **config_kwargs)
    restore_store(fresh.store, blob)
    return fresh, client


class TestPolicyStateSurvivesRestore:
    def test_lru_recency_survives(self):
        config = dict(capacity_entries=3, eviction="lru")
        d, client = make_store(b"restore-lru", **config)
        tags = [put(client, bytes([i])) for i in range(3)]
        warm(client, tags[0])
        warm(client, tags[2])  # tags[1] stays coldest

        fresh, client2 = restored_copy(d, b"restore-lru", **config)
        put(client2, b"overflow")
        assert not fresh.store.contains(tags[1])
        assert fresh.store.contains(tags[0])
        assert fresh.store.contains(tags[2])

    def test_lfu_hit_counts_survive(self):
        config = dict(capacity_entries=3, eviction="lfu")
        d, client = make_store(b"restore-lfu", **config)
        tags = [put(client, bytes([i])) for i in range(3)]
        warm(client, tags[0], times=3)
        warm(client, tags[1], times=1)  # tags[2] never read

        fresh, client2 = restored_copy(d, b"restore-lfu", **config)
        put(client2, b"overflow")
        assert not fresh.store.contains(tags[2])
        assert fresh.store.contains(tags[0])
        assert fresh.store.contains(tags[1])

    def test_fifo_insert_order_survives(self):
        config = dict(capacity_entries=3, eviction="fifo")
        d, client = make_store(b"restore-fifo", **config)
        tags = [put(client, bytes([i])) for i in range(3)]
        warm(client, tags[0], times=5)  # heat must not save the oldest

        fresh, client2 = restored_copy(d, b"restore-fifo", **config)
        put(client2, b"overflow")
        assert not fresh.store.contains(tags[0])
        assert fresh.store.contains(tags[1])
        assert fresh.store.contains(tags[2])

    def test_per_entry_hit_counters_survive(self):
        d, client = make_store(b"restore-hits")
        tag = put(client, b"counted")
        warm(client, tag, times=4)
        assert d.store.entry_hits(tag) == 4

        fresh, _client2 = restored_copy(d, b"restore-hits")
        assert fresh.store.entry_hits(tag) == 4


class TestQuotaAndEvictionRoundTrip:
    def test_quota_rejections_still_apply_after_restore(self):
        config = dict(quota=QuotaPolicy(max_bytes_per_app=80))
        d, client = make_store(b"restore-quota", **config)
        assert put(client, b"a") is not None
        assert put(client, b"b") is not None
        assert put(client, b"c") is None  # over the byte quota

        fresh, client2 = restored_copy(d, b"restore-quota", **config)
        assert len(fresh.store) == 2
        # Restored usage counts against the quota: still over.
        assert put(client2, b"d") is None

    def test_mid_eviction_state_round_trips(self):
        # Snapshot a store that has already evicted under pressure; the
        # restored copy holds exactly the survivors and keeps evicting
        # from the same recency order.
        config = dict(capacity_entries=3, eviction="lru")
        d, client = make_store(b"restore-midevict", **config)
        tags = [put(client, bytes([i])) for i in range(4)]  # evicts tags[0]
        assert d.store.stats.evictions == 1
        assert not d.store.contains(tags[0])
        warm(client, tags[1])  # tags[2] is now the LRU victim

        fresh, client2 = restored_copy(d, b"restore-midevict", **config)
        assert len(fresh.store) == 3
        assert not fresh.store.contains(tags[0])
        put(client2, b"overflow")
        assert not fresh.store.contains(tags[2])
        assert fresh.store.contains(tags[1])
        assert fresh.store.contains(tags[3])

    def test_restore_into_less_room_evicts_by_policy(self):
        # A snapshot is one more route into the store and obeys the same
        # capacity rule as a PUT: restoring ten entries into room for
        # four evicts by policy on the way in, it does not overfill.
        d, client = make_store(b"restore-shrink")
        tags = [put(client, bytes([i])) for i in range(10)]
        blob = snapshot_store(d.store)
        small, _ = make_store(b"restore-shrink", capacity_entries=4, eviction="fifo")
        report = restore_store(small.store, blob)
        assert report.entries_restored == 10
        assert len(small.store) == 4
        assert small.store.stats.evictions == 6
        # FIFO over the restored insertion order keeps the newest four.
        assert small.store.stored_tags() == sorted(tags[6:])
        assert small.store.blobstore.bytes_stored == 4 * 32

        tight, _ = make_store(b"restore-shrink", capacity_bytes=100)
        restore_store(tight.store, blob)
        assert len(tight.store) == 3
        assert tight.store.blobstore.bytes_stored == 96
