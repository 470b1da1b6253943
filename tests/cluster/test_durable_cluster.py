"""Durability under replication: per-shard power failures, stale
recoveries, and read-repair reconvergence."""

from repro.durable import take_checkpoint
from repro.security import HostAdversary
from repro.store.resultstore import StoreConfig

from .conftest import make_cluster, make_get, make_put, raw_router


def durable_cluster(n_shards=3, replication_factor=2, seed=b"durable-cluster"):
    return make_cluster(
        n_shards=n_shards, replication_factor=replication_factor, seed=seed,
        store_config=StoreConfig(durable=True),
    )


class TestPowerFailShard:
    def test_power_failed_shard_recovers_every_entry(self):
        d = durable_cluster()
        router = raw_router(d)
        puts = [make_put(i, prefix=b"pf") for i in range(12)]
        for put in puts:
            assert router.call(put).accepted

        for shard_id in list(d.cluster.shard_ids):
            before = set(d.cluster.shards[shard_id].store.stored_tags())
            report = d.cluster.power_fail_shard(shard_id)
            after = set(d.cluster.shards[shard_id].store.stored_tags())
            assert after == before
            assert not report.torn_tail and not report.chain_broken

        for put in puts:
            assert router.call(make_get(put)).found

    def test_holders_unchanged_across_power_failures(self):
        d = durable_cluster()
        router = raw_router(d)
        puts = [make_put(i, prefix=b"hold") for i in range(8)]
        for put in puts:
            assert router.call(put).accepted
        holders = {p.tag: d.cluster.holders_of(p.tag) for p in puts}
        for shard_id in list(d.cluster.shard_ids):
            d.cluster.power_fail_shard(shard_id)
        assert holders == {p.tag: d.cluster.holders_of(p.tag) for p in puts}


class TestStaleRecoveryReconverges:
    def test_read_repair_refills_a_shard_recovered_from_an_older_checkpoint(self):
        d = durable_cluster(n_shards=3, replication_factor=2)
        router = raw_router(d)

        # Two writes owned by the same primary, a checkpoint between
        # them; then the host loses the post-checkpoint log suffix, so
        # recovery comes back one write behind its replica.
        ring = d.cluster.ring
        first = make_put(0, prefix=b"stale")
        primary = ring.primary(first.tag)
        later = next(
            put for put in (make_put(i, prefix=b"stale") for i in range(1, 200))
            if ring.primary(put.tag) == primary
        )
        assert router.call(first).accepted
        node = d.cluster.shards[primary]
        take_checkpoint(node.store)
        assert router.call(later).accepted

        adversary = HostAdversary(node.platform.host)
        for name in node.store.durable.segment_names():
            adversary.delete(name)            # host drops the log tail
        node.store.power_fail()
        report = node.store.recover()
        assert report.checkpoint_seq >= 1
        assert node.store.contains(first.tag)
        assert not node.store.contains(later.tag)       # recovered stale
        assert d.cluster.holders_of(later.tag) == [     # replica still has it
            s for s in d.cluster.owners_of(later.tag) if s != primary
        ]

        # The read is served from the surviving replica and the repair
        # re-PUT brings the stale shard back to full replication.
        repairs0 = router.stats.read_repairs
        response = router.call(make_get(later))
        assert response.found
        assert router.stats.read_repairs == repairs0 + 1
        assert router.drain_responses() == []           # absorb repair acks
        assert primary in d.cluster.holders_of(later.tag)
        assert len(d.cluster.holders_of(later.tag)) == 2
