"""LRU eviction, the store's one rule, picks the right victims."""

from repro.store.metadata import MetadataDict, MetadataEntry, blob_digest
from repro.store.oblivious import ObliviousMetadataDict


def entry(tag):
    return MetadataEntry(
        tag=tag, challenge=b"r" * 32, wrapped_key=b"k" * 16, blob_ref=0,
        blob_digest=blob_digest(b""), size=1, app_id="a",
    )


class TestPolicies:
    def test_lru_picks_least_recent(self):
        # The plain dictionary reads its recency head; the oblivious one
        # scans.  Both name the same victim.
        for d in (MetadataDict(), ObliviousMetadataDict(capacity=8)):
            for tag in (b"a", b"b", b"c"):
                d.put(entry(tag))
            d.get(b"a")
            d.get(b"c")
            assert d.least_recent().tag == b"b"


class TestPoliciesThroughTheStore:
    """LRU driven end-to-end through ResultStore capacity."""

    def _store(self, capacity_entries=3):
        from repro.deployment import Deployment
        from repro.store.resultstore import StoreConfig

        d = Deployment(
            seed=b"evict-lru", store_config=StoreConfig(capacity_entries=capacity_entries),
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
        d, client = self._store()
        tags = [self._put(client, bytes([i])) for i in range(3)]
        self._get(client, tags[0])  # warm a and c; b stays cold
        self._get(client, tags[2])
        self._put(client, b"overflow")
        assert d.store.stats.evictions == 1
        assert not d.store.contains(tags[1])
        assert d.store.contains(tags[0]) and d.store.contains(tags[2])

    def test_capacity_entries_evicts_until_it_fits(self):
        from repro.deployment import Deployment
        from repro.crypto.hashes import sha256
        from repro.net.messages import PutRequest
        from repro.store.resultstore import StoreConfig

        d = Deployment(seed=b"evict-bytes", store_config=StoreConfig(capacity_entries=3))
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

        d = Deployment(seed=b"evict-tiny", store_config=StoreConfig(capacity_entries=0))
        enclave = d.platform.create_enclave("evict-client", b"evict-code")
        client = d.store.connect("evict-addr", app_enclave=enclave)
        with _pytest.raises(ProtocolError):
            client.call(PutRequest(
                tag=sha256(b"huge"), challenge=b"r" * 32,
                wrapped_key=b"k" * 16, sealed_result=b"x" * 100,
                app_id="evict-client",
            ))
