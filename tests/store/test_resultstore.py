"""ResultStore service: GET/PUT semantics, capacity, tamper handling."""

import pytest

from repro.crypto.hashes import sha256
from repro.net.messages import (
    BatchPutRequest,
    ErrorMessage,
    GetRequest,
    PutRequest,
    decode_message,
)
from repro.net.transport import Network
from repro.security import HostAdversary
from repro.sgx.platform import SgxPlatform
from repro.store.quota import QuotaPolicy
from repro.store.resultstore import ResultStore, StoreConfig
from tests.conftest import arena_name


def make_store(config: StoreConfig | None = None, seed=b"store-tests"):
    platform = SgxPlatform(seed=seed)
    network = Network()
    store = ResultStore(platform, network, config=config, seed=seed)
    if store.config.use_sgx:
        enclave = platform.create_enclave("client-app", b"client-code")
    else:
        enclave = None
    client = store.connect("client-addr", app_enclave=enclave)
    return store, client


def put(tag: bytes, body: bytes = b"sealed-bytes", app="app") -> PutRequest:
    return PutRequest(tag=tag, challenge=b"r" * 32, wrapped_key=b"k" * 16,
                      sealed_result=body, app_id=app)


TAG = sha256(b"tag-1")
TAG2 = sha256(b"tag-2")


class TestGetPut:
    def test_miss_then_hit(self):
        store, client = make_store()
        miss = client.call(GetRequest(tag=TAG))
        assert not miss.found
        accepted = client.call(put(TAG))
        assert accepted.accepted
        hit = client.call(GetRequest(tag=TAG))
        assert hit.found
        assert hit.sealed_result == b"sealed-bytes"
        assert hit.challenge == b"r" * 32
        assert hit.wrapped_key == b"k" * 16

    def test_duplicate_put_first_wins(self):
        store, client = make_store()
        client.call(put(TAG, b"original"))
        response = client.call(put(TAG, b"attackers-replacement"))
        assert response.accepted
        assert response.reason == "already stored"
        assert client.call(GetRequest(tag=TAG)).sealed_result == b"original"
        assert store.stats.puts_duplicate == 1

    def test_stats(self):
        store, client = make_store()
        client.call(GetRequest(tag=TAG))
        client.call(put(TAG))
        client.call(GetRequest(tag=TAG))
        assert store.stats.gets == 2
        assert store.stats.hits == 1
        assert store.stats.puts == 1
        assert store.stats.hit_rate() == 0.5

    def test_entry_hits_tracked(self):
        store, client = make_store()
        client.call(put(TAG))
        client.call(GetRequest(tag=TAG))
        client.call(GetRequest(tag=TAG))
        assert store._dict.peek(TAG).hits == 2


class TestValidation:
    def test_bad_tag_length(self):
        from repro.errors import ProtocolError

        _, client = make_store()
        with pytest.raises(ProtocolError):
            client.call(GetRequest(tag=b"short"))

    def test_bad_challenge_length(self):
        """A malformed PUT is refused in band with ``protocol_error``,
        lone as beside a batch-mate."""
        store, client = make_store()
        bad = PutRequest(tag=TAG, challenge=b"short", wrapped_key=b"k" * 16,
                         sealed_result=b"x", app_id="a")
        mate = put(sha256(b"batch-mate"))
        lone = client.call(bad)
        batched, mate_verdict = client.call(BatchPutRequest(items=(bad, mate))).items
        for verdict in (lone, batched):
            assert not verdict.accepted
            assert verdict.reason.startswith("protocol_error: challenge")
        assert mate_verdict.accepted
        assert store.stored_tags() == [mate.tag]

    def test_empty_challenge_allowed_for_single_key_scheme(self):
        _, client = make_store()
        ok = PutRequest(tag=TAG, challenge=b"", wrapped_key=b"",
                        sealed_result=b"x", app_id="a")
        assert client.call(ok).accepted

    def test_unconnected_client_rejected(self):
        from repro.errors import StoreError

        store, _ = make_store()
        rogue = store.network.endpoint("rogue", store.platform.clock)
        with pytest.raises(StoreError):
            rogue.send(store.address, b"raw-bytes")


class TestTamperDetection:
    def test_tampered_blob_served_as_miss(self):
        store, client = make_store()
        client.call(put(TAG))
        HostAdversary(store.platform.host).flip(arena_name(store, TAG))
        response = client.call(GetRequest(tag=TAG))
        assert not response.found
        assert store.stats.tamper_detected == 1
        # The poisoned entry was dropped entirely.
        assert not store.contains(TAG)

    def test_swapped_blobs_detected(self):
        store, client = make_store()
        client.call(put(TAG, b"result-one"))
        client.call(put(TAG2, b"result-two"))
        HostAdversary(store.platform.host).exchange(
            arena_name(store, TAG), arena_name(store, TAG2)
        )
        assert not client.call(GetRequest(tag=TAG)).found
        assert store.stats.tamper_detected >= 1

    def test_digest_check_can_be_disabled(self):
        store, client = make_store(StoreConfig(verify_blob_digest=False))
        client.call(put(TAG))
        HostAdversary(store.platform.host).flip(arena_name(store, TAG))
        # Without the store-side digest the poisoned bytes are served —
        # the application's AEAD check is then the last line of defence.
        assert client.call(GetRequest(tag=TAG)).found


class TestCapacity:
    def test_entry_capacity_evicts_lru(self):
        store, client = make_store(StoreConfig(capacity_entries=2))
        t = [sha256(bytes([i])) for i in range(3)]
        client.call(put(t[0]))
        client.call(put(t[1]))
        client.call(GetRequest(tag=t[0]))  # t0 recently used
        client.call(put(t[2]))              # evicts t1
        assert store.contains(t[0])
        assert not store.contains(t[1])
        assert store.stats.evictions == 1

    def test_single_entry_capacity(self):
        store, client = make_store(StoreConfig(capacity_entries=1))
        client.call(put(TAG, b"x" * 100))
        client.call(put(TAG2, b"y" * 200))  # two entries > 1
        assert not store.contains(TAG)
        assert store.contains(TAG2)

    def test_blob_arena_stays_in_sync(self):
        store, client = make_store(StoreConfig(capacity_entries=1))
        client.call(put(TAG, b"a" * 50))
        client.call(put(TAG2, b"b" * 50))
        assert len(store.blobstore) == 1
        assert store.blobstore.bytes_stored == 50


class TestQuotaIntegration:
    def test_quota_rejection_is_clean_put_response(self):
        store, client = make_store(
            StoreConfig(quota=QuotaPolicy(max_entries_per_app=1))
        )
        assert client.call(put(TAG, app="greedy")).accepted
        rejected = client.call(put(TAG2, app="greedy"))
        assert not rejected.accepted
        assert "quota" in rejected.reason


class TestNoSgxVariant:
    def test_same_functionality_without_enclave(self):
        store, client = make_store(StoreConfig(use_sgx=False))
        assert store.enclave is None
        client.call(put(TAG))
        assert client.call(GetRequest(tag=TAG)).found

    def test_sgx_mode_charges_more_cycles(self):
        sgx_store, sgx_client = make_store(StoreConfig(use_sgx=True), seed=b"s1")
        plain_store, plain_client = make_store(StoreConfig(use_sgx=False), seed=b"s2")
        mark = sgx_store.platform.clock.snapshot()
        sgx_client.call(put(TAG))
        sgx_cost = sgx_store.platform.clock.since(mark)
        mark = plain_store.platform.clock.snapshot()
        plain_client.call(put(TAG))
        plain_cost = plain_store.platform.clock.since(mark)
        assert sgx_cost > plain_cost


class TestSyncHandler:
    def test_sync_filters_by_hits_and_known_tags(self):
        # An application channel must not be able to bulk-export the
        # dictionary: type byte 5 (the retired SYNC_REQUEST) is unknown to
        # the codec, whatever body follows it (the min_hits filter itself
        # is test_sync's test_unpopular_entries_stay).  Only another
        # attested ResultStore enclave receives (tag, r, [k], [res]) tuples.
        store, client = make_store()
        client.call(put(TAG, b"one"))
        client.call(put(TAG2, b"two"))
        client.call(GetRequest(tag=TAG))  # TAG now has 1 hit
        gets = store.stats.gets
        for body in (b"", b"\x00\x00\x00\x00\x00\x00\x00\x01", b"\x00\x00\x00\x01" + TAG):
            frame = b"\x05" + (9).to_bytes(8, "big") + body
            client._endpoint.send(store.address, client._channel.protect(frame))
            _, reply = client._endpoint.recv()
            answer = decode_message(client._channel.unprotect(reply))
            assert isinstance(answer, ErrorMessage)
            assert answer.code == 400 and "unknown message type" in answer.detail
        assert len(store) == 2 and store.stats.gets == gets  # refused, nothing disturbed
        assert client.call(GetRequest(tag=TAG2)).found

    def test_ingest_entry_idempotent(self):
        store, _ = make_store()
        assert store.ingest_entry(TAG, b"r" * 32, b"k" * 16, b"blob")
        assert not store.ingest_entry(TAG, b"r" * 32, b"k" * 16, b"blob")


class TestBlobsInEpc:
    def test_every_route_records_the_extent_and_eviction_drops_it(self):
        # Ablation A3's blob arena is enclave heap: whichever way an
        # entry comes in, its blob has an extent there (so a later GET
        # pays the EPC touch, not a marshal copy), and the extent goes
        # when the entry does.
        from repro.store.persistence import restore_store, snapshot_store

        config = StoreConfig(blobs_in_epc=True, capacity_entries=3, durable=True)
        store, client = make_store(config, seed=b"epc-routes")

        def extents():
            return sorted(store._epc_blob_extents)

        def live_refs():
            return sorted(store.metadata_entry(t).blob_ref for t in store.stored_tags())

        client.call(put(TAG, b"w" * 5000))                        # wire PUT
        faults = store.platform.epc.fault_count
        assert store.ingest_entry(TAG2, b"r" * 32, b"k" * 16, b"h" * 9000)  # hand-off
        assert store.platform.epc.fault_count - faults >= 2      # fresh heap pages touched
        assert extents() == live_refs() and len(extents()) == 2

        store.power_fail()
        store.recover()                                           # WAL replay
        assert extents() == live_refs() and len(extents()) == 2

        snapshot_store(store)
        store.clear()
        assert extents() == []
        restore_store(store)                                      # snapshot restore
        assert extents() == live_refs() and len(extents()) == 2

        for i in range(3):                                        # evicts both
            client.call(put(sha256(b"fill-%d" % i), b"f" * 100))
        assert extents() == live_refs() and len(extents()) == 3
