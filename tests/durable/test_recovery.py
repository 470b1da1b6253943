"""Power-fail recovery: round trips, torn tails, chain breaks,
checkpoint compaction, quota re-admission."""

import pytest

from repro import Deployment
from repro.errors import ProtocolError, StoreError
from repro.net.messages import BatchPutRequest
from repro.sgx.sealing import SealedBlob
from repro.store.quota import QuotaPolicy

from .conftest import durable_deployment, get, make_put, put


def image(store) -> dict:
    """tag -> exact ciphertext bytes currently served."""
    return {
        tag: store.blobstore.get(store.blob_ref_of(tag))
        for tag in store.stored_tags()
    }


def tampered(segment) -> object:
    """The same segment with one flipped ciphertext byte."""
    payload = segment.sealed.payload
    broken = payload[:-1] + bytes([payload[-1] ^ 1])
    return type(segment)(
        first_seq=segment.first_seq,
        n_records=segment.n_records,
        chain=segment.chain,
        sealed=SealedBlob(policy=segment.sealed.policy, payload=broken),
    )


class TestRoundTrip:
    def test_power_fail_wipes_recover_restores_byte_identical(self):
        d, client = durable_deployment(b"rec-round")
        tags = [put(client, bytes([i])) for i in range(5)]
        pre = image(d.store)

        wiped = d.store.power_fail()
        assert wiped == 5
        assert len(d.store) == 0

        report = d.store.recover()
        assert image(d.store) == pre
        assert report.puts_replayed == 5
        assert report.records_replayed == 5
        assert not report.torn_tail and not report.chain_broken
        assert d.store.stats.power_fails == 1
        assert d.store.stats.recoveries == 1
        # Recovered entries serve as ordinary hits.
        assert all(get(client, tag).found for tag in tags)

    def test_replayed_evictions_stay_evicted(self):
        d, client = durable_deployment(b"rec-evict", capacity_entries=2)
        tags = [put(client, bytes([i])) for i in range(3)]
        evicted = [t for t in tags if not d.store.contains(t)]
        pre = image(d.store)
        d.store.power_fail()
        report = d.store.recover()
        assert image(d.store) == pre
        assert report.removes_replayed == 1
        assert all(not d.store.contains(t) for t in evicted)

    def test_unacked_buffered_records_are_lost_atomically(self):
        # A record appended but never committed (no ack ever left) must
        # vanish entirely — the pre-append state is what recovers.
        d, client = durable_deployment(b"rec-unacked")
        tag = put(client, b"kept")
        with d.store.enclave.ecall("test-append"):
            d.store.durable.append_remove(tag)  # buffered, not committed
        assert d.store.durable.pending_records == 1
        d.store.power_fail()
        report = d.store.recover()
        assert d.store.contains(tag)  # the un-acked remove never happened
        assert report.removes_replayed == 0

    def test_recovery_recovers_twice(self):
        d, client = durable_deployment(b"rec-twice")
        put(client, b"a")
        pre = image(d.store)
        d.store.power_fail()
        d.store.recover()
        put(client, b"b")
        pre2 = image(d.store)
        assert len(pre2) == 2
        d.store.power_fail()
        d.store.recover()
        assert image(d.store) == pre2
        assert set(pre) <= set(pre2)


class TestHostTampering:
    def test_torn_last_segment_is_dropped(self):
        d, client = durable_deployment(b"rec-torn")
        tags = [put(client, bytes([i])) for i in range(4)]
        log = d.store.durable
        log.segments[-1] = tampered(log.segments[-1])
        d.store.power_fail()
        report = d.store.recover()
        assert report.torn_tail and not report.chain_broken
        assert report.records_dropped == 1
        assert report.puts_replayed == 3
        assert not d.store.contains(tags[-1])
        assert all(d.store.contains(t) for t in tags[:-1])
        assert log.torn_segments == 1

    def test_corrupt_middle_segment_is_a_chain_break(self):
        d, client = durable_deployment(b"rec-break")
        tags = [put(client, bytes([i])) for i in range(4)]
        log = d.store.durable
        log.segments[1] = tampered(log.segments[1])
        d.store.power_fail()
        report = d.store.recover()
        assert report.chain_broken and not report.torn_tail
        assert report.records_dropped == 3  # the break and everything after
        assert d.store.contains(tags[0])
        assert all(not d.store.contains(t) for t in tags[1:])
        assert log.chain_breaks == 1

    def test_reordered_segments_are_a_chain_break(self):
        d, client = durable_deployment(b"rec-reorder")
        [put(client, bytes([i])) for i in range(4)]
        log = d.store.durable
        log.segments[1], log.segments[2] = log.segments[2], log.segments[1]
        d.store.power_fail()
        report = d.store.recover()
        assert report.chain_broken
        assert report.puts_replayed == 1  # replay stops at the swap

    def test_dropped_middle_segment_is_a_chain_break(self):
        d, client = durable_deployment(b"rec-drop")
        [put(client, bytes([i])) for i in range(4)]
        log = d.store.durable
        del log.segments[1]
        d.store.power_fail()
        report = d.store.recover()
        assert report.chain_broken
        assert report.puts_replayed == 1

    def test_missing_blob_is_counted_not_fatal(self):
        d, client = durable_deployment(b"rec-blob")
        tags = [put(client, bytes([i])) for i in range(3)]
        victim = d.store.metadata_entry(tags[1]).blob_digest
        del d.store.durable.blob_area[victim]
        d.store.power_fail()
        report = d.store.recover()
        assert report.blobs_missing == 1
        assert report.puts_replayed == 2
        assert not d.store.contains(tags[1])
        assert d.store.contains(tags[0]) and d.store.contains(tags[2])


class TestCheckpointing:
    def test_interval_folds_the_log_into_a_checkpoint(self):
        d, client = durable_deployment(b"rec-ckpt", checkpoint_interval=4)
        [put(client, bytes([i])) for i in range(6)]
        log = d.store.durable
        assert log.checkpoints >= 1
        assert log.checkpoint is not None
        assert log.records_in_log() < 6  # folded segments were compacted

    def test_recovery_from_checkpoint_plus_tail(self):
        d, client = durable_deployment(b"rec-ckpt2", checkpoint_interval=4)
        tags = [put(client, bytes([i])) for i in range(6)]
        pre = image(d.store)
        d.store.power_fail()
        report = d.store.recover()
        assert image(d.store) == pre
        assert report.checkpoint_seq >= 4
        assert report.entries_restored >= 4      # from the checkpoint image
        assert report.entries_restored + report.puts_replayed == 6
        assert all(d.store.contains(t) for t in tags)

    def test_recovery_installs_a_fresh_anchor(self):
        # After recovery the rebuilt state is itself checkpointed, so a
        # second immediate failure replays nothing.
        d, client = durable_deployment(b"rec-anchor")
        [put(client, bytes([i])) for i in range(3)]
        d.store.power_fail()
        d.store.recover()
        assert d.store.durable.records_in_log() == 0
        pre = image(d.store)
        d.store.power_fail()
        report = d.store.recover()
        assert report.records_replayed == 0
        assert report.entries_restored == 3
        assert image(d.store) == pre


class TestQuotaAcrossRecovery:
    def test_quota_usage_is_readmitted_by_replay(self):
        d, client = durable_deployment(
            b"rec-quota",
            quota=QuotaPolicy(max_bytes_per_app=150),
        )
        assert client.call(make_put(b"a", size=64)).accepted
        assert client.call(make_put(b"b", size=64)).accepted
        rejected = client.call(make_put(b"c", size=64))
        assert not rejected.accepted and "quota" in rejected.reason

        d.store.power_fail()
        d.store.recover()
        # Replay re-admitted both entries' usage: the app is still at
        # its limit, so a restart is not a quota-laundering loophole.
        still_rejected = client.call(make_put(b"d", size=64))
        assert not still_rejected.accepted
        assert "quota" in still_rejected.reason

    def test_usage_per_app_is_crash_invariant_whichever_route(self):
        # Wire PUTs are metered and come back metered; hand-off entries
        # (sync / migration ingest) are unmetered live, so they must stay
        # unmetered through eviction, WAL replay and checkpoint restore —
        # no phantom "sync" tenant appears after a power failure.
        d, client = durable_deployment(
            b"rec-quota-routes", quota=QuotaPolicy(), capacity_entries=6,
            checkpoint_interval=5,
        )
        store = d.store

        def usage():
            return {app: store._quota.usage_of(app) for app in ("alice", "bob", "sync")}

        for i in range(2):
            put(client, b"a%d" % i, app_id="alice")
        for i in range(3):
            assert store.ingest_entry(
                make_put(b"h%d" % i).tag, b"r" * 32, b"k" * 16, b"handed-off-%d" % i
            )
        for i in range(3):
            put(client, b"b%d" % i, app_id="bob")  # evicts a0, a1 (LRU)
        live = usage()
        assert live == {"alice": (0, 0), "bob": (192, 3), "sync": (0, 0)}
        assert store.durable.checkpoints >= 1  # both restore paths in play

        store.power_fail()
        report = store.recover()
        assert report.entries_restored and report.puts_replayed
        assert usage() == live
        # ...and evicting a recovered hand-off entry releases nothing.
        for i in range(3):
            put(client, b"c%d" % i, app_id="alice")  # evicts h0..h2
        assert usage() == {"alice": (192, 3), "bob": (192, 3), "sync": (0, 0)}

    def test_hand_off_id_is_reserved_on_the_wire(self):
        d, client = durable_deployment(b"rec-quota-reserved", quota=QuotaPolicy())
        with pytest.raises(ProtocolError, match="reserved"):
            client.call(make_put(b"x", app_id="sync"))
        verdicts = client.call(BatchPutRequest(items=(
            make_put(b"y", app_id="sync"), make_put(b"z", app_id="alice"),
        ))).items
        assert [v.accepted for v in verdicts] == [False, True]
        assert d.store._quota.usage_of("sync") == (0, 0)
        assert d.store.stored_tags() == [make_put(b"z").tag]


class TestGuards:
    def test_power_fail_requires_durable_mode(self):
        d = Deployment(seed=b"rec-plain")
        with pytest.raises(StoreError):
            d.store.power_fail()
        with pytest.raises(StoreError):
            d.store.recover()
