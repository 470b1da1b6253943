"""Eviction policies select the right victims."""

import pytest

from repro.errors import StoreError
from repro.store.eviction import FifoPolicy, LfuPolicy, LruPolicy, make_policy
from repro.store.metadata import MetadataEntry, blob_digest


def entry(tag, hits=0, insert_seq=0, last_access_seq=0):
    e = MetadataEntry(
        tag=tag, challenge=b"r" * 32, wrapped_key=b"k" * 16, blob_ref=0,
        blob_digest=blob_digest(b""), size=1, app_id="a",
        hits=hits, insert_seq=insert_seq, last_access_seq=last_access_seq,
    )
    return e


class TestPolicies:
    def test_lru_picks_least_recent(self):
        entries = [entry(b"a", last_access_seq=5), entry(b"b", last_access_seq=2),
                   entry(b"c", last_access_seq=9)]
        assert LruPolicy().select_victim(entries).tag == b"b"

    def test_lfu_picks_least_hit(self):
        entries = [entry(b"a", hits=3), entry(b"b", hits=1), entry(b"c", hits=7)]
        assert LfuPolicy().select_victim(entries).tag == b"b"

    def test_lfu_ties_break_by_age(self):
        entries = [entry(b"a", hits=1, insert_seq=10), entry(b"b", hits=1, insert_seq=3)]
        assert LfuPolicy().select_victim(entries).tag == b"b"

    def test_fifo_picks_oldest(self):
        entries = [entry(b"a", insert_seq=4), entry(b"b", insert_seq=1)]
        assert FifoPolicy().select_victim(entries).tag == b"b"

    @pytest.mark.parametrize("policy", [LruPolicy(), LfuPolicy(), FifoPolicy()])
    def test_empty_rejected(self, policy):
        with pytest.raises(StoreError):
            policy.select_victim([])


class TestFactory:
    @pytest.mark.parametrize("name,cls", [("lru", LruPolicy), ("lfu", LfuPolicy),
                                          ("fifo", FifoPolicy)])
    def test_make_policy(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_unknown_policy(self):
        with pytest.raises(StoreError):
            make_policy("magic")


class TestPoliciesThroughTheStore:
    """Same policies, driven end-to-end through ResultStore capacity."""

    def _store(self, eviction, capacity_entries=3):
        from repro.deployment import Deployment
        from repro.store.resultstore import StoreConfig

        d = Deployment(
            seed=b"evict-" + eviction.encode(),
            store_config=StoreConfig(
                capacity_entries=capacity_entries, eviction=eviction,
            ),
        )
        enclave = d.platform.create_enclave("evict-client", b"evict-code")
        client = d.store.connect("evict-addr", app_enclave=enclave)
        return d, client

    def _put(self, client, label):
        from repro.crypto.hashes import sha256
        from repro.net.messages import PutRequest

        tag = sha256(b"evict" + label)
        client.call(PutRequest(
            tag=tag, challenge=b"r" * 32, wrapped_key=b"k" * 16,
            sealed_result=b"blob-" + label, app_id="evict-client",
        ))
        return tag

    def _get(self, client, tag):
        from repro.net.messages import GetRequest

        return client.call(GetRequest(tag=tag, app_id="evict-client"))

    def test_lru_evicts_the_coldest_entry(self):
        d, client = self._store("lru")
        tags = [self._put(client, bytes([i])) for i in range(3)]
        self._get(client, tags[0])  # warm a and c; b stays cold
        self._get(client, tags[2])
        self._put(client, b"overflow")
        assert d.store.stats.evictions == 1
        assert not d.store.contains(tags[1])
        assert d.store.contains(tags[0]) and d.store.contains(tags[2])

    def test_lfu_evicts_the_least_hit_entry(self):
        d, client = self._store("lfu")
        tags = [self._put(client, bytes([i])) for i in range(3)]
        for _ in range(3):
            self._get(client, tags[0])
        self._get(client, tags[1])
        # tags[2] was never read: fewest hits, first out.
        self._put(client, b"overflow")
        assert not d.store.contains(tags[2])
        assert d.store.contains(tags[0]) and d.store.contains(tags[1])

    def test_fifo_evicts_the_oldest_entry_regardless_of_heat(self):
        d, client = self._store("fifo")
        tags = [self._put(client, bytes([i])) for i in range(3)]
        for _ in range(5):
            self._get(client, tags[0])  # heat does not save the oldest
        self._put(client, b"overflow")
        assert not d.store.contains(tags[0])
        assert d.store.contains(tags[1]) and d.store.contains(tags[2])

    def test_capacity_bytes_evicts_until_it_fits(self):
        from repro.deployment import Deployment
        from repro.crypto.hashes import sha256
        from repro.net.messages import PutRequest
        from repro.store.resultstore import StoreConfig

        d = Deployment(
            seed=b"evict-bytes",
            store_config=StoreConfig(capacity_bytes=300, eviction="fifo"),
        )
        enclave = d.platform.create_enclave("evict-client", b"evict-code")
        client = d.store.connect("evict-addr", app_enclave=enclave)
        for i in range(4):
            client.call(PutRequest(
                tag=sha256(b"bytes" + bytes([i])), challenge=b"r" * 32,
                wrapped_key=b"k" * 16, sealed_result=b"x" * 100,
                app_id="evict-client",
            ))
        assert d.store.stats.evictions >= 1
        assert len(d.store) < 4

    def test_single_entry_larger_than_capacity_rejected(self):
        import pytest as _pytest

        from repro.deployment import Deployment
        from repro.crypto.hashes import sha256
        from repro.errors import ProtocolError
        from repro.net.messages import PutRequest
        from repro.store.resultstore import StoreConfig

        d = Deployment(
            seed=b"evict-tiny",
            store_config=StoreConfig(capacity_bytes=10, eviction="lru"),
        )
        enclave = d.platform.create_enclave("evict-client", b"evict-code")
        client = d.store.connect("evict-addr", app_enclave=enclave)
        with _pytest.raises(ProtocolError):
            client.call(PutRequest(
                tag=sha256(b"huge"), challenge=b"r" * 32,
                wrapped_key=b"k" * 16, sealed_result=b"x" * 100,
                app_id="evict-client",
            ))
