"""Master-store replication over remote attestation."""

import pytest

from repro.crypto.hashes import sha256
from repro.deployment import Deployment
from repro.errors import StoreError
from repro.net.messages import GetRequest, PutRequest
from repro.sgx.attestation import AttestationService
from repro.store.resultstore import StoreConfig
from repro.store.sync import replicate_popular


def two_machines(store_config_b=None):
    service = AttestationService()
    a = Deployment(seed=b"sync-a", machine="a", attestation_service=service)
    b = Deployment(seed=b"sync-b", machine="b", attestation_service=service,
                   store_config=store_config_b)
    return service, a, b


def fill(deployment, n, prefix=b"entry", hit=True):
    enclave = deployment.platform.create_enclave("filler", b"filler-code")
    client = deployment.store.connect("filler-addr", app_enclave=enclave)
    tags = []
    for i in range(n):
        tag = sha256(prefix + bytes([i]))
        tags.append(tag)
        client.call(PutRequest(tag=tag, challenge=b"r" * 32, wrapped_key=b"k" * 16,
                               sealed_result=b"blob-%d" % i, app_id="filler"))
        if hit:
            client.call(GetRequest(tag=tag))
    return tags


class TestReplication:
    def test_popular_entries_transfer(self):
        service, a, b = two_machines()
        tags = fill(a, 3)
        report = replicate_popular(service, a.store, b.store, min_hits=1)
        assert report.transferred == 3
        assert all(b.store.contains(t) for t in tags)

    def test_unpopular_entries_stay(self):
        service, a, b = two_machines()
        fill(a, 2, hit=False)  # never re-read: hits == 0
        report = replicate_popular(service, a.store, b.store, min_hits=1)
        assert report.transferred == 0

    def test_idempotent_no_redundancy(self):
        service, a, b = two_machines()
        fill(a, 3)
        replicate_popular(service, a.store, b.store)
        second = replicate_popular(service, a.store, b.store)
        assert second.transferred == 0
        assert second.duplicates == 3  # deterministic tags dedupe at master

    def test_multiple_sources_dedupe_at_master(self):
        service = AttestationService()
        a = Deployment(seed=b"m-a", machine="a", attestation_service=service)
        b = Deployment(seed=b"m-b", machine="b", attestation_service=service)
        master = Deployment(seed=b"m-m", machine="m", attestation_service=service)
        fill(a, 2, prefix=b"shared")
        fill(b, 2, prefix=b"shared")  # same tags computed independently
        r1 = replicate_popular(service, a.store, master.store)
        r2 = replicate_popular(service, b.store, master.store)
        assert r1.transferred == 2
        assert r2.transferred == 0
        assert r2.duplicates == 2

    def test_requires_sgx_stores(self):
        service = AttestationService()
        a = Deployment(seed=b"x-a", machine="a", attestation_service=service)
        b = Deployment(seed=b"x-b", machine="b", attestation_service=service,
                       store_config=StoreConfig(use_sgx=False))
        with pytest.raises(StoreError):
            replicate_popular(service, a.store, b.store)


class TestAttestedStoreChannel:
    def test_endpoints_round_trip_both_ways(self):
        from repro.store.sync import attested_store_channel

        service, a, b = two_machines()
        a_ep, b_ep = attested_store_channel(service, a.store, b.store)
        assert b_ep.unprotect(a_ep.protect(b"from-a")) == b"from-a"
        assert a_ep.unprotect(b_ep.protect(b"from-b")) == b"from-b"

    def test_channel_payloads_are_confidential(self):
        from repro.store.sync import attested_store_channel

        service, a, b = two_machines()
        a_ep, _ = attested_store_channel(service, a.store, b.store)
        secret = b"sealed result ciphertext"
        record = a_ep.protect(secret)
        assert secret not in record

    def test_tampered_record_rejected(self):
        import pytest as _pytest

        from repro.errors import ChannelError
        from repro.store.sync import attested_store_channel

        service, a, b = two_machines()
        a_ep, b_ep = attested_store_channel(service, a.store, b.store)
        record = bytearray(a_ep.protect(b"payload"))
        record[-1] ^= 0x01
        with _pytest.raises(ChannelError):
            b_ep.unprotect(bytes(record))

    def test_rejects_peer_with_foreign_signer(self):
        from repro.errors import AttestationError
        from repro.store.sync import attested_store_channel

        service, a, b = two_machines()
        # Forge the peer's signer identity after enclave launch: the
        # channel must refuse to treat it as a ResultStore.
        impostor = b.store.enclave.measurement
        object.__setattr__(impostor, "mrsigner", sha256(b"someone else"))
        with pytest.raises(AttestationError):
            attested_store_channel(service, a.store, b.store)

    def test_requires_sgx_on_both_sides(self):
        from repro.store.sync import attested_store_channel

        service, a, b = two_machines(
            store_config_b=StoreConfig(use_sgx=False))
        with pytest.raises(StoreError):
            attested_store_channel(service, a.store, b.store)


class TestEntryCodec:
    def test_round_trip(self):
        from repro.store.sync import _decode_entries, _encode_entries

        entries = [
            (sha256(b"t1"), b"r" * 32, b"k" * 16, b"sealed-one"),
            (sha256(b"t2"), b"s" * 32, b"j" * 16, b""),
        ]
        assert _decode_entries(_encode_entries(entries)) == entries

    def test_empty(self):
        from repro.store.sync import _decode_entries, _encode_entries

        assert _decode_entries(_encode_entries([])) == []

    def test_trailing_garbage_rejected(self):
        from repro.errors import SerializationError
        from repro.store.sync import _decode_entries, _encode_entries

        data = _encode_entries([(sha256(b"t"), b"r" * 32, b"k" * 16, b"x")])
        with pytest.raises(SerializationError):
            _decode_entries(data + b"extra")
