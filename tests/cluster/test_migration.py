"""Live resharding: join and leave move tag ranges without loss."""

import pytest

from repro import TopologyPlan
from repro.errors import SpeedError

from tests.cluster.conftest import make_cluster, make_get, make_put, raw_router


def join(cluster, shard_id=None):
    """Stream a shard in to completion: (its node, the migration report)."""
    migrator = cluster.begin_plan(TopologyPlan().join(shard_id))
    report = migrator.run()
    (joiner,) = migrator.joiners
    return cluster.shards[joiner], report


def leave(cluster, shard_id):
    """Stream a shard out to completion; returns the migration report."""
    return cluster.begin_plan(TopologyPlan().leave(shard_id)).run()


def fill(deployment, router, n, prefix=b"mig"):
    puts = [make_put(i, prefix=prefix) for i in range(n)]
    for put in puts:
        router.call(put)
    return puts


class TestJoin:
    def test_every_entry_readable_after_join(self):
        d = make_cluster(n_shards=3, replication_factor=2, seed=b"join")
        router = raw_router(d)
        puts = fill(d, router, 40)
        node, report = join(d.cluster)
        assert node.shard_id == "shard-3"
        assert node.shard_id in d.cluster.ring.shards
        assert report.moved > 0
        assert report.bytes_moved > 0
        for put in puts:
            response = router.call(make_get(put))
            assert response.found
            assert response.sealed_result == put.sealed_result

    def test_join_restores_ownership_invariant(self):
        d = make_cluster(n_shards=3, replication_factor=2, seed=b"join-inv")
        router = raw_router(d)
        puts = fill(d, router, 40)
        join(d.cluster)
        for put in puts:
            owners = d.cluster.owners_of(put.tag)
            assert d.cluster.holders_of(put.tag) == sorted(owners)

    def test_join_drops_entries_from_former_owners(self):
        d = make_cluster(n_shards=3, replication_factor=1, seed=b"join-drop")
        router = raw_router(d)
        n = 60
        fill(d, router, n)
        assert d.cluster.total_entries() == n
        _, report = join(d.cluster)
        # RF 1: each entry lives on exactly one shard, so every moved
        # entry must have been dropped at its source.
        assert report.moved == report.dropped > 0
        assert d.cluster.total_entries() == n

    def test_new_shard_serves_existing_router(self):
        d = make_cluster(n_shards=2, replication_factor=1, seed=b"join-route")
        router = raw_router(d)
        puts = fill(d, router, 40)
        node, _ = join(d.cluster)
        owned = [p for p in puts if d.cluster.ring.owners(p.tag)[0] == node.shard_id]
        assert owned, "newcomer took no tags — raise the fill count"
        timeouts_before = router.stats.get_timeouts
        for put in owned:
            assert router.call(make_get(put)).found
        assert router.stats.get_timeouts == timeouts_before

    def test_duplicate_shard_id_rejected(self):
        d = make_cluster(n_shards=2, replication_factor=1, seed=b"join-dup")
        with pytest.raises(SpeedError):
            join(d.cluster, "shard-0")


class TestLeave:
    def test_graceful_leave_loses_nothing(self):
        d = make_cluster(n_shards=4, replication_factor=2, seed=b"leave")
        router = raw_router(d)
        puts = fill(d, router, 40)
        report = leave(d.cluster, "shard-1")
        assert "shard-1" not in d.cluster.ring.shards
        assert "shard-1" not in d.cluster.shards
        assert report.transfers >= 1
        timeouts_before = router.stats.get_timeouts
        for put in puts:
            response = router.call(make_get(put))
            assert response.found
            assert response.sealed_result == put.sealed_result
        # The router was detached, so no request ever probed the leaver.
        assert router.stats.get_timeouts == timeouts_before

    def test_leave_rehomes_to_future_owners(self):
        d = make_cluster(n_shards=4, replication_factor=1, seed=b"leave-own")
        router = raw_router(d)
        puts = fill(d, router, 60)
        leave(d.cluster, "shard-2")
        for put in puts:
            owners = d.cluster.owners_of(put.tag)
            holders = d.cluster.holders_of(put.tag)
            assert owners[0] in holders

    def test_last_shard_cannot_leave(self):
        d = make_cluster(n_shards=1, replication_factor=1, seed=b"leave-last")
        with pytest.raises(SpeedError) as excinfo:
            leave(d.cluster, "shard-0")
        assert excinfo.value.code == "migration_state"

    def test_unknown_shard_rejected(self):
        d = make_cluster(n_shards=2, replication_factor=1, seed=b"leave-x")
        with pytest.raises(SpeedError, match="'ghost' not on the ring") as excinfo:
            leave(d.cluster, "ghost")
        assert excinfo.value.code == "speed_error"


class TestMigrationIdempotence:
    def test_join_then_leave_round_trip(self):
        d = make_cluster(n_shards=3, replication_factor=2, seed=b"round")
        router = raw_router(d)
        puts = fill(d, router, 30)
        node, _ = join(d.cluster)
        leave(d.cluster, node.shard_id)
        for put in puts:
            assert router.call(make_get(put)).found
        for put in puts:
            owners = d.cluster.owners_of(put.tag)
            assert set(owners) <= set(d.cluster.holders_of(put.tag))
