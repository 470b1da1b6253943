"""Write-ahead log mechanics: group commit, chaining, record coverage."""

import pytest

from repro.deployment import Deployment
from repro.durable.wal import (
    GENESIS_CHAIN,
    REC_PUT,
    REC_REMOVE,
    chain_step,
    decode_segment,
)
from repro.errors import StoreError
from repro.store.resultstore import StoreConfig

from .conftest import batch_put, durable_deployment, put


def decode_all_segments(store):
    """Unseal every committed segment; returns [(prev_chain, first_seq,
    records), ...] in log order."""
    log = store.durable
    with store.enclave.ecall("test-decode"):
        return [decode_segment(log.unseal(name)) for name in log.segment_names()]


class TestGroupCommit:
    def test_every_served_request_commits_before_its_ack(self):
        # Single-item requests never leave buffered records behind: the
        # reply is the ack, so commit runs even below the group size.
        d, client = durable_deployment(b"wal-ack", wal_group_commit=8)
        for i in range(3):
            put(client, bytes([i]))
        log = d.store.durable
        assert log.pending_records == 0
        assert log.records_logged == 3
        assert len(log.segment_names()) == 3

    def test_batch_request_fills_groups_mid_request(self):
        # A 10-record batch at group size 4 seals 4+4 mid-request and
        # the trailing 2 at the end-of-request commit: three segments.
        d, client = durable_deployment(b"wal-group", wal_group_commit=4)
        batch_put(client, [bytes([i]) for i in range(10)])
        log = d.store.durable
        assert log.records_logged == 10
        assert [name.rpartition("+")[2] for name in log.segment_names()] == ["4", "4", "2"]
        assert log.pending_records == 0

    def test_segments_chain_through_their_seal_headers(self):
        d, client = durable_deployment(b"wal-chain")
        for i in range(4):
            put(client, bytes([i]))
        log = d.store.durable
        decoded = decode_all_segments(d.store)
        running = GENESIS_CHAIN
        expected_seq = 1
        for name, (prev_chain, first_seq, records) in zip(log.segment_names(), decoded):
            assert prev_chain == running
            assert first_seq == expected_seq
            assert name == f"{log.wal_prefix}{first_seq:020d}+{len(records)}"
            running = chain_step(d.platform.host.get(name))
            expected_seq += len(records)
        assert log.chain == running
        assert log.next_seq == expected_seq

    def test_evictions_are_logged_as_remove_records(self):
        d, client = durable_deployment(b"wal-evict", capacity_entries=2)
        tags = [put(client, bytes([i])) for i in range(3)]
        assert d.store.stats.evictions == 1
        records = [r for _, _, recs in decode_all_segments(d.store) for r in recs]
        kinds = [r.kind for r in records]
        assert kinds.count(REC_PUT) == 3
        assert kinds.count(REC_REMOVE) == 1
        evicted = next(r for r in records if r.kind == REC_REMOVE)
        assert evicted.tag in tags

    def test_put_records_carry_the_entry_metadata(self):
        d, client = durable_deployment(b"wal-fields")
        tag = put(client, b"x")
        ((_, _, records),) = decode_all_segments(d.store)
        (record,) = records
        entry = d.store.metadata_entry(tag)
        assert record.tag == tag
        assert record.challenge == entry.challenge
        assert record.wrapped_key == entry.wrapped_key
        assert record.blob_digest == entry.blob_digest
        assert record.size == entry.size
        assert record.app_id == entry.app_id
        # The ciphertext was written through to the durable blob area.
        assert d.platform.host.get(d.store.durable.blob_name(record.blob_digest)) == (
            d.store.blobstore.get(entry.blob_ref)
        )


class TestConfigValidation:
    def test_durable_requires_sgx(self):
        with pytest.raises(StoreError):
            Deployment(
                seed=b"wal-nosgx",
                store_config=StoreConfig(durable=True, use_sgx=False),
            )

    def test_durable_rejects_oblivious_metadata(self):
        with pytest.raises(StoreError):
            Deployment(
                seed=b"wal-oram",
                store_config=StoreConfig(durable=True, oblivious_metadata=True),
            )


class TestObservability:
    def test_store_snapshot_merges_durable_counters(self):
        d, client = durable_deployment(b"wal-snap")
        put(client, b"a")
        snap = d.store.snapshot()
        assert snap["durable.appends"] == 1
        assert snap["durable.commits"] == 1
        assert snap["durable.records_logged"] == 1
        assert snap["durable.wal_segments"] == 1
        assert snap["durable.pending_records"] == 0
        assert snap["durable.log_bytes"] > 0
        assert snap["store.puts"] == 1

    def test_non_durable_snapshot_has_no_durable_keys(self):
        d = Deployment(seed=b"wal-plain")
        assert not any(k.startswith("durable.") for k in d.store.snapshot())
