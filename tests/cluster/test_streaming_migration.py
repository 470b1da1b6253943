"""Streaming resharding: the dual-ownership window, crash-safe hand-off
marks, and migration's interplay with replication, quotas, and faults."""

import contextlib
import dataclasses

import pytest

from repro.cluster.ring import ShardRing, TopologyPlan, tag_point
from repro.errors import (
    MigrationIngestError,
    MigrationInProgressError,
    MigrationStateError,
)
from repro.store.resultstore import StoreConfig

from tests.cluster.conftest import make_cluster, make_get, make_put, raw_router


def fill(router, n, prefix=b"stream"):
    puts = [make_put(i, prefix=prefix) for i in range(n)]
    for put in puts:
        assert router.call(put).accepted
    return puts


def ownership_exact(cluster, puts):
    return all(
        cluster.holders_of(p.tag) == sorted(cluster.owners_of(p.tag))
        for p in puts
    )


class TestRingTransition:
    def ring(self, n=3, vnodes=16):
        ring = ShardRing(vnodes=vnodes)
        for i in range(n):
            ring.add_shard(f"shard-{i}")
        return ring

    def test_begin_plan_join_opens_window_with_ranges(self):
        ring = self.ring()
        ranges = ring.begin_plan(TopologyPlan().join("shard-3"), 2)
        assert ring.in_transition
        assert ranges
        assert all("shard-3" in r.dests for r in ranges)

    def test_write_owners_point_at_pending_ring(self):
        ring = self.ring()
        ring.begin_plan(TopologyPlan().join("shard-3"), 2)
        settled = self.ring(4)
        tag = bytes(range(32))
        assert ring.write_owners(tag, 2) == settled.owners(tag, 2)

    def test_read_owners_keep_old_owners_until_commit(self):
        ring = self.ring()
        ranges = ring.begin_plan(TopologyPlan().join("shard-3"), 2)
        moved = next(
            r for r in ranges if "shard-3" in r.dests and r.sources
        )
        # Any tag whose point falls in an uncommitted moved range still
        # reads from its old owners (plus the pending ones as failover).
        tag = bytes(range(32))
        for r in ranges:
            if r.contains(tag_point(tag)):
                readers = ring.read_owners(tag, 2)
                for source in r.sources:
                    assert source in readers
                break
        assert moved.index not in ()

    def test_commit_range_switches_reads_to_new_owners(self):
        ring = self.ring()
        ranges = ring.begin_plan(TopologyPlan().join("shard-3"), 2)
        for r in ranges:
            ring.commit_range(r.index)
        ring.finish()
        assert not ring.in_transition
        assert "shard-3" in ring.shards

    def test_abort_transition_restores_old_ring(self):
        ring = self.ring()
        before = ring.shards
        ring.begin_plan(TopologyPlan().join("shard-3"), 2)
        ring.abort_transition()
        assert not ring.in_transition
        assert ring.shards == before

    def test_second_transition_rejected_while_open(self):
        ring = self.ring()
        ring.begin_plan(TopologyPlan().join("shard-3"), 2)
        with pytest.raises(MigrationInProgressError):
            ring.begin_plan(TopologyPlan().join("shard-4"), 2)

    def test_commit_unknown_range_rejected(self):
        ring = self.ring()
        ring.begin_plan(TopologyPlan().join("shard-3"), 2)
        with pytest.raises(MigrationStateError):
            ring.commit_range(10_000)


class TestStreamingJoin:
    def test_stepwise_join_matches_blocking_result(self):
        d = make_cluster(n_shards=3, replication_factor=2, seed=b"step-join")
        router = raw_router(d)
        puts = fill(router, 30)
        migrator = d.cluster.begin_plan(TopologyPlan().join())
        steps = 0
        while migrator.pending_ranges():
            assert migrator.step()
            steps += 1
        report = migrator.finish()
        assert steps == len(migrator.ranges)
        assert report.moved > 0
        assert ownership_exact(d.cluster, puts)
        for put in puts:
            response = router.call(make_get(put))
            assert response.found
            assert response.sealed_result == put.sealed_result

    def test_reads_and_writes_served_inside_the_window(self):
        d = make_cluster(n_shards=3, replication_factor=2, seed=b"window")
        router = raw_router(d)
        puts = fill(router, 20)
        migrator = d.cluster.begin_plan(TopologyPlan().join())
        # Half-way through the hand-off: every pre-existing entry is
        # still readable (failover covers uncommitted ranges) and new
        # writes land on the pending owners without being lost.
        for _ in range(len(migrator.pending_ranges()) // 2):
            migrator.step()
        for put in puts:
            assert router.call(make_get(put)).found
        fresh = [make_put(i, prefix=b"window-fresh") for i in range(8)]
        for put in fresh:
            assert router.call(put).accepted
            assert router.call(make_get(put)).found
        migrator.run()
        assert ownership_exact(d.cluster, puts + fresh)

    def test_read_repair_does_not_resurrect_across_the_window(self):
        # A GET that fails over to an old owner during the window must
        # not copy the entry somewhere the settled ring disowns.
        d = make_cluster(n_shards=3, replication_factor=2, seed=b"rr-window")
        router = raw_router(d)
        puts = fill(router, 24)
        migrator = d.cluster.begin_plan(TopologyPlan().join())
        for _ in range(len(migrator.pending_ranges()) // 2):
            migrator.step()
        for put in puts:
            assert router.call(make_get(put)).found
        migrator.run()
        assert ownership_exact(d.cluster, puts)


class TestMigrationUnderFaults:
    def test_join_survives_one_dead_replica(self):
        # RF=2: every range has two source replicas, so one dead source
        # must not block the stream — the surviving replica feeds it.
        d = make_cluster(n_shards=3, replication_factor=2, seed=b"dead-rep")
        router = raw_router(d)
        puts = fill(router, 24)
        victim = d.cluster.shard_ids[0]
        d.cluster.kill_shard(victim)
        migrator = d.cluster.begin_plan(TopologyPlan().join())
        while migrator.pending_ranges():
            if not migrator.step():
                break
        assert not migrator.pending_ranges()
        migrator.finish()
        d.cluster.revive_shard(victim)
        for put in puts:
            assert router.call(make_get(put)).found

    def test_dead_joiner_blocks_instead_of_losing_entries(self):
        d = make_cluster(n_shards=3, replication_factor=2, seed=b"dead-join")
        router = raw_router(d)
        puts = fill(router, 16)
        migrator = d.cluster.begin_plan(TopologyPlan().join())
        (joiner,) = migrator.joiners
        d.cluster.kill_shard(joiner)
        assert not migrator.step()          # blocked, not lost
        assert migrator.pending_ranges()
        d.cluster.revive_shard(joiner)
        migrator.run()
        assert ownership_exact(d.cluster, puts)

    def test_power_fail_on_source_mid_stream_recovers_consistently(self):
        d = make_cluster(
            n_shards=3, replication_factor=2, seed=b"pf-src",
            store_config=StoreConfig(durable=True),
        )
        router = raw_router(d)
        puts = fill(router, 24)
        migrator = d.cluster.begin_plan(TopologyPlan().join())
        for _ in range(len(migrator.pending_ranges()) // 2):
            migrator.step()
        for sid in migrator.ranges[0].sources:
            d.cluster.power_fail_shard(sid)
        migrator.run()
        assert ownership_exact(d.cluster, puts)
        for put in puts:
            assert router.call(make_get(put)).found

    def test_power_fail_on_joiner_mid_stream_recovers_consistently(self):
        d = make_cluster(
            n_shards=3, replication_factor=2, seed=b"pf-dst",
            store_config=StoreConfig(durable=True),
        )
        router = raw_router(d)
        puts = fill(router, 24)
        migrator = d.cluster.begin_plan(TopologyPlan().join())
        for _ in range(len(migrator.pending_ranges()) // 2):
            migrator.step()
        (joiner,) = migrator.joiners
        d.cluster.power_fail_shard(joiner)
        migrator.run()
        assert ownership_exact(d.cluster, puts)
        for put in puts:
            assert router.call(make_get(put)).found


class TestQuotaFullTarget:
    def test_full_target_rejects_batch_and_abort_restores_ownership(self):
        d = make_cluster(n_shards=3, replication_factor=2, seed=b"quota-target")
        router = raw_router(d)
        puts = fill(router, 12)
        owners_before = {p.tag: d.cluster.owners_of(p.tag) for p in puts}
        shards_before = set(d.cluster.shards)
        migrator = d.cluster.begin_plan(TopologyPlan().join(), batch_entries=4)
        # The target's quota fills before the first migrated batch: the
        # destination refuses the ingest instead of silently evicting
        # foreground entries to make room.
        (joiner,) = migrator.joiners
        target = d.cluster.shards[joiner].store
        target.config = dataclasses.replace(target.config, capacity_entries=len(target))
        with pytest.raises(MigrationIngestError) as excinfo:
            migrator.run()
        assert excinfo.value.code == "migration_ingest"
        d.cluster.abort_plan(migrator)
        assert set(d.cluster.shards) == shards_before
        assert not d.cluster.ring.in_transition
        assert owners_before == {
            p.tag: d.cluster.owners_of(p.tag) for p in puts
        }
        assert ownership_exact(d.cluster, puts)
        for put in puts:
            assert router.call(make_get(put)).found


class TestStreamingLeave:
    def test_stepwise_leave_loses_nothing(self):
        d = make_cluster(n_shards=4, replication_factor=2, seed=b"step-leave")
        router = raw_router(d)
        puts = fill(router, 30)
        leaver = d.cluster.shard_ids[1]
        migrator = d.cluster.begin_plan(TopologyPlan().leave(leaver))
        while migrator.pending_ranges():
            assert migrator.step()
        migrator.finish()
        assert leaver not in d.cluster.shards
        assert leaver not in d.cluster.ring.shards
        assert ownership_exact(d.cluster, puts)
        for put in puts:
            assert router.call(make_get(put)).found


class FakeEngine:
    """Minimal engine stand-in: the ``background()`` charging context
    the step path enters."""

    @contextlib.contextmanager
    def background(self):
        yield


class TestOverlapPacing:
    """``overlap_steps`` demand pacing: spread pending ranges evenly
    across the remaining foreground gaps, commit at most one range per
    live gaining shard in a gap while an engine is attached, and defer
    the excess instead of front-loading it onto the critical path."""

    def migrator_with_pending(self, seed, vnodes=16, joins=1):
        d = make_cluster(n_shards=3, replication_factor=2, seed=seed,
                         vnodes=vnodes)
        router = raw_router(d)
        fill(router, 24)
        plan = TopologyPlan()
        for _ in range(joins):
            plan = plan.join()
        return d.cluster.begin_plan(plan)

    def test_paces_demand_across_remaining_rounds(self):
        migrator = self.migrator_with_pending(b"pace-even")
        pending = len(migrator.pending_ranges())
        rounds_left = pending  # one range per gap suffices
        committed = migrator.overlap_steps(rounds_left)
        assert committed == 1  # ceil(pending / rounds_left)

    def test_last_gap_takes_the_remainder_without_engine(self):
        migrator = self.migrator_with_pending(b"pace-tail")
        pending = len(migrator.pending_ranges())
        assert pending > 1
        # No engine attached: the budget is pure demand pacing, so the
        # final gap drains everything that is left.
        committed = migrator.overlap_steps(1)
        assert committed == pending
        assert not migrator.pending_ranges()

    @pytest.mark.parametrize("joins", [1, 2])
    def test_an_engine_caps_a_gap_at_one_range_per_gaining_shard(self, joins):
        migrator = self.migrator_with_pending(b"pace-cap", joins=joins)
        migrator.engine = FakeEngine()
        pending = len(migrator.pending_ranges())
        assert pending > joins
        # Demand says "drain all now"; each joiner takes one range.
        assert migrator.overlap_steps(1) == joins
        assert len(migrator.pending_ranges()) == pending - joins

    def test_a_dead_gaining_shard_takes_no_slot(self):
        migrator = self.migrator_with_pending(b"pace-dead", joins=2)
        migrator.engine = FakeEngine()
        dead, _ = sorted(migrator.joiners)
        migrator.cluster.kill_shard(dead)
        assert migrator.overlap_steps(1) == 1

    def test_returns_zero_when_nothing_pending(self):
        migrator = self.migrator_with_pending(b"pace-done")
        while migrator.pending_ranges():
            migrator.step()
        assert migrator.overlap_steps(4) == 0

    def test_stops_when_every_range_is_blocked(self):
        migrator = self.migrator_with_pending(b"pace-blocked")
        (joiner,) = migrator.joiners
        migrator.cluster.kill_shard(joiner)
        assert migrator.overlap_steps(1) == 0
        assert migrator.pending_ranges()
