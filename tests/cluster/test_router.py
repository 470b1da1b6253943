"""Client-side routing: replication, failover, read-repair, batches."""

import pytest

from repro.cluster.router import NO_LIVE_OWNER
from repro.errors import ProtocolError
from repro.net.messages import BatchPutResponse, GetResponse, PutResponse

from tests.cluster.conftest import (
    make_cluster,
    make_get,
    make_put,
    puts_spanning_all_shards,
    raw_router,
)


class TestRoutingBasics:
    def test_put_lands_on_all_owners(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(0)
        response = router.call(put)
        assert response.accepted
        owners = cluster4.cluster.owners_of(put.tag)
        assert len(owners) == 2
        assert cluster4.cluster.holders_of(put.tag) == sorted(owners)

    def test_get_served_by_primary(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(1)
        router.call(put)
        response = router.call(make_get(put))
        assert response.found
        assert response.sealed_result == put.sealed_result
        assert router.stats.failovers == 0

    def test_unknown_tag_is_clean_miss(self, cluster4):
        router = raw_router(cluster4)
        response = router.call(make_get(make_put(2)))
        assert not response.found
        assert response.reason == ""  # a real miss, not unavailability

    def test_non_store_message_rejected(self, cluster4):
        router = raw_router(cluster4)
        with pytest.raises(ProtocolError):
            router.call(PutResponse(accepted=True))


class TestFailover:
    def test_get_fails_over_to_replica(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(3)
        router.call(put)
        primary = cluster4.cluster.owners_of(put.tag)[0]
        cluster4.cluster.kill_shard(primary)
        response = router.call(make_get(put))
        assert response.found
        assert response.sealed_result == put.sealed_result
        assert router.stats.failovers == 1
        assert router.stats.get_timeouts == 1

    def test_all_owners_dead_is_unavailable_not_miss(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(4)
        router.call(put)
        for shard in cluster4.cluster.owners_of(put.tag):
            cluster4.cluster.kill_shard(shard)
        response = router.call(make_get(put))
        assert not response.found
        assert response.reason == NO_LIVE_OWNER
        assert router.stats.unavailable == 1

    def test_put_with_all_owners_dead_times_out(self, cluster4):
        """Every owner's send times out, and the PUT is answered in band,
        as a batch item is: not accepted, ``no_live_owner``."""
        router = raw_router(cluster4)
        put = make_put(5)
        owners = cluster4.cluster.owners_of(put.tag)
        for shard in owners:
            cluster4.cluster.kill_shard(shard)
        response = router.call(put)
        assert not response.accepted
        assert response.reason == NO_LIVE_OWNER
        assert router.stats.put_timeouts == len(owners)

    def test_put_during_outage_lands_on_live_replica(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(6)
        primary, replica = cluster4.cluster.owners_of(put.tag)
        cluster4.cluster.kill_shard(primary)
        response = router.call(put)
        assert response.accepted
        assert cluster4.cluster.holders_of(put.tag) == [replica]

    def test_revived_shard_keeps_pre_crash_state(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(7)
        router.call(put)
        primary = cluster4.cluster.owners_of(put.tag)[0]
        cluster4.cluster.kill_shard(primary)
        assert not cluster4.cluster.shard_alive(primary)
        cluster4.cluster.revive_shard(primary)
        assert cluster4.cluster.shard_alive(primary)
        response = router.call(make_get(put))
        assert response.found
        assert router.stats.failovers == 0  # primary answered again


class TestReadRepair:
    def fill_during_outage(self, deployment, router):
        """PUT one entry while its primary is down; return (put, primary)."""
        put = make_put(0, prefix=b"repair")
        primary = deployment.cluster.owners_of(put.tag)[0]
        deployment.cluster.kill_shard(primary)
        router.call(put)  # lands on the live replica only
        deployment.cluster.revive_shard(primary)
        return put, primary

    def test_replica_hit_repairs_the_primary(self, cluster4):
        router = raw_router(cluster4)
        put, primary = self.fill_during_outage(cluster4, router)
        assert primary not in cluster4.cluster.holders_of(put.tag)
        response = router.call(make_get(put))
        assert response.found
        assert router.stats.read_repairs == 1
        # The repair is a one-way PUT: after the ack drains, the primary
        # holds the entry and serves it directly.
        drained = router.drain_responses()
        assert drained == []  # repair acks are router-internal
        assert router.stats.repair_acks == 1
        assert primary in cluster4.cluster.holders_of(put.tag)
        stats_before = router.stats.read_repairs
        assert router.call(make_get(put)).found
        assert router.stats.read_repairs == stats_before

    def test_repair_ack_never_reaches_the_runtime(self, cluster4):
        router = raw_router(cluster4)
        put, _ = self.fill_during_outage(cluster4, router)
        router.call(make_get(put))
        # Even mixed with a real one-way PUT, only that PUT's ack emerges.
        other = make_put(999, prefix=b"other")
        router_id = router.send_oneway(other)
        out = router.drain_responses()
        assert [r.request_id for r in out] == [router_id]


class TestOnewayCorrelation:
    def test_single_ack_forwarded_once(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(8)
        router_id = router.send_oneway(put)
        out = router.drain_responses()
        assert len(out) == 1
        assert out[0].request_id == router_id
        assert out[0].accepted
        # The replica's ack was absorbed, not surfaced.
        assert router.stats.replica_put_acks == 1
        assert router.drain_responses() == []

    def test_oneway_to_dead_owners_stays_unacknowledged(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(9)
        for shard in cluster4.cluster.owners_of(put.tag):
            cluster4.cluster.kill_shard(shard)
        router.send_oneway(put)
        assert router.drain_responses() == []  # never acked, never faked

    def test_batch_acks_merge_in_item_order(self, cluster4):
        router = raw_router(cluster4)
        puts = puts_spanning_all_shards(cluster4, per_shard=2)
        router_id = router.send_oneway_batch(puts)
        out = router.drain_responses()
        assert len(out) == 1
        batch = out[0]
        assert isinstance(batch, BatchPutResponse)
        assert batch.request_id == router_id
        assert len(batch.items) == len(puts)
        assert all(item.accepted for item in batch.items)


class TestBatchedCalls:
    def test_batch_get_round_trip_in_order(self, cluster4):
        router = raw_router(cluster4)
        puts = puts_spanning_all_shards(cluster4, per_shard=2)
        for put in puts:
            router.call(put)
        responses = router.call_batch([make_get(p) for p in puts])
        assert len(responses) == len(puts)
        for put, response in zip(puts, responses):
            assert response.found
            assert response.sealed_result == put.sealed_result

    def test_batch_put_round_trip_in_order(self, cluster4):
        router = raw_router(cluster4)
        puts = puts_spanning_all_shards(cluster4, per_shard=2)
        responses = router.call_batch(puts)
        assert len(responses) == len(puts)
        assert all(r.accepted for r in responses)
        for put in puts:
            owners = cluster4.cluster.owners_of(put.tag)
            assert cluster4.cluster.holders_of(put.tag) == sorted(owners)

    def test_mixed_batch_rejected(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(10)
        with pytest.raises(ProtocolError):
            router.call_batch([put, make_get(put)])

    def test_batch_get_fails_over_whole_subbatch(self, cluster4):
        router = raw_router(cluster4)
        puts = puts_spanning_all_shards(cluster4, per_shard=2)
        for put in puts:
            router.call(put)
        victim = cluster4.cluster.shard_ids[0]
        cluster4.cluster.kill_shard(victim)
        responses = router.call_batch([make_get(p) for p in puts])
        assert all(r.found for r in responses)
        assert router.stats.failovers >= 1


class TestBatchGetPartialShardTimeout:
    """Regression: a BATCH_GET spanning several shards where one shard
    times out must return per-item failures for *that shard's items
    only*, in their original positions (issue satellite 6)."""

    def test_only_dead_shards_items_fail(self):
        # RF 1: the dead shard's items have no replica to fall back on.
        d = make_cluster(n_shards=4, replication_factor=1,
                         seed=b"batch-timeout")
        router = raw_router(d)
        puts = puts_spanning_all_shards(d, per_shard=3)
        for put in puts:
            router.call(put)
        victim = d.cluster.ring.owners(puts[0].tag)[0]
        victim_indices = {
            i for i, p in enumerate(puts)
            if d.cluster.ring.owners(p.tag)[0] == victim
        }
        assert 0 < len(victim_indices) < len(puts)
        d.cluster.kill_shard(victim)

        responses = router.call_batch([make_get(p) for p in puts])
        assert len(responses) == len(puts)
        for i, (put, response) in enumerate(zip(puts, responses)):
            assert isinstance(response, GetResponse)
            if i in victim_indices:
                assert not response.found
                assert response.reason == NO_LIVE_OWNER
            else:
                assert response.found
                assert response.sealed_result == put.sealed_result

    def test_replicated_items_survive_the_same_timeout(self):
        d = make_cluster(n_shards=4, replication_factor=2,
                         seed=b"batch-timeout-rf2")
        router = raw_router(d)
        puts = puts_spanning_all_shards(d, per_shard=3)
        for put in puts:
            router.call(put)
        d.cluster.kill_shard(d.cluster.shard_ids[0])
        responses = router.call_batch([make_get(p) for p in puts])
        assert [r.found for r in responses] == [True] * len(puts)


class TestTopology:
    def test_detach_makes_items_unavailable(self, cluster4):
        router = raw_router(cluster4)
        put = make_put(11)
        router.call(put)
        for shard in list(router.shard_ids):
            router.detach_shard(shard)
        response = router.call(make_get(put))
        assert not response.found
        assert response.reason == NO_LIVE_OWNER

    def test_double_attach_rejected(self, cluster4):
        router = raw_router(cluster4)
        shard = router.shard_ids[0]
        with pytest.raises(ProtocolError):
            router.attach_shard(shard, object())
