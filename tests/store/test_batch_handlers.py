"""ResultStore batch handlers: one ECALL serves the whole batch."""

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashes import sha256
from repro.deployment import Deployment
from repro.net.messages import GetRequest, PutRequest
from repro.store.quota import QuotaPolicy
from repro.store.resultstore import StoreConfig


def connect(deployment: Deployment, name: str = "batch-client"):
    enclave = deployment.platform.create_enclave(name, name.encode() + b"-code")
    return deployment.store.connect(name + "-addr", app_enclave=enclave)


def make_puts(count: int, label: bytes, app_id: str = "batch") -> list[PutRequest]:
    drbg = HmacDrbg(label, b"store-batch")
    return [
        PutRequest(
            tag=sha256(label + i.to_bytes(4, "big")),
            challenge=drbg.generate(32),
            wrapped_key=drbg.generate(16),
            sealed_result=drbg.generate(256),
            app_id=app_id,
        )
        for i in range(count)
    ]


class TestBatchGet:
    def test_found_flags_follow_item_order(self):
        d = Deployment(seed=b"sb-get")
        client = connect(d)
        puts = make_puts(3, b"sb-get")
        client.call_batch(puts)
        requests = [GetRequest(tag=puts[0].tag, app_id="batch"),
                    GetRequest(tag=b"\x00" * 32, app_id="batch"),
                    GetRequest(tag=puts[2].tag, app_id="batch")]
        responses = client.call_batch(requests)
        assert [r.found for r in responses] == [True, False, True]
        found = responses[0]
        assert found.challenge == puts[0].challenge
        assert found.sealed_result == puts[0].sealed_result

    def test_one_ecall_and_n_dictionary_probes(self):
        d = Deployment(seed=b"sb-ecall")
        client = connect(d)
        puts = make_puts(4, b"sb-ecall")
        client.call_batch(puts)
        gets_before = d.store.stats.gets
        ecalls_before = d.store.enclave.ecall_count
        client.call_batch([GetRequest(tag=p.tag, app_id="batch") for p in puts])
        assert d.store.stats.gets - gets_before == 4
        assert d.store.enclave.ecall_count - ecalls_before == 1


class TestBatchPut:
    def test_all_accepted(self):
        d = Deployment(seed=b"sb-put")
        client = connect(d)
        responses = client.call_batch(make_puts(5, b"sb-put"))
        assert all(r.accepted for r in responses)
        assert d.store.stats.puts == 5

    def test_quota_rejection_is_per_item(self):
        """A quota breach mid-batch must reject that item, not poison
        the whole batch with an error."""
        d = Deployment(
            seed=b"sb-quota",
            store_config=StoreConfig(quota=QuotaPolicy(max_entries_per_app=2)),
        )
        client = connect(d)
        responses = client.call_batch(make_puts(4, b"sb-quota"))
        assert [r.accepted for r in responses] == [True, True, False, False]
        assert all(r.reason for r in responses if not r.accepted)

    def test_batched_entries_served_to_other_clients(self):
        d = Deployment(seed=b"sb-share")
        writer = connect(d, "writer")
        reader = connect(d, "reader")
        puts = make_puts(3, b"sb-share")
        writer.call_batch(puts)
        response = reader.call(GetRequest(tag=puts[1].tag, app_id="reader"))
        assert response.found
        assert response.sealed_result == puts[1].sealed_result
