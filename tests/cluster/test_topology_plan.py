"""Planned topology transitions: TopologyPlan validation, weighted vnode
placement, the one-window multi-change diff, ring boundary semantics, and
the Session.apply_topology / rebalance(weights=...) surface."""

import pytest

from repro import TopologyPlan, TopologyReport, connect
from repro.cluster.ring import RING_SIZE, MigrationRange, ShardRing, tag_point
from repro.errors import (
    MigrationError,
    MigrationInProgressError,
    MigrationStateError,
    SpeedError,
)

from tests.cluster.conftest import make_cluster, make_get, make_put, raw_router
from tests.proptest import for_all, integers, lists_of


def ring_with(*shard_ids, vnodes=16):
    ring = ShardRing(vnodes=vnodes)
    for shard_id in shard_ids:
        ring.add_shard(shard_id)
    return ring


def point_tag(point: int) -> bytes:
    """A 32-byte tag whose ring position is exactly ``point``."""
    return point.to_bytes(8, "big") + bytes(24)


class TestTopologyPlanValidation:
    def test_empty_plan_rejected(self):
        with pytest.raises(SpeedError, match="empty"):
            TopologyPlan().validate()

    def test_builders_compose_immutably(self):
        base = TopologyPlan().join("s4", weight=2.0)
        extended = base.leave("s0").reweight("s1", 0.5)
        assert base.leaves == ()
        assert extended.joins == (("s4", 2.0),)
        assert extended.leaves == ("s0",)
        assert extended.reweights == (("s1", 0.5),)
        extended.validate()

    def test_shard_in_two_changes_rejected(self):
        plan = TopologyPlan().leave("s0").reweight("s0", 2.0)
        with pytest.raises(SpeedError, match="at most one change"):
            plan.validate()

    def test_non_positive_weight_rejected(self):
        with pytest.raises(SpeedError, match="weight"):
            TopologyPlan().join("s4", weight=0.0).validate()
        with pytest.raises(SpeedError, match="weight"):
            TopologyPlan().reweight("s1", -1.0).validate()

    def test_label_summarises_every_change(self):
        plan = (
            TopologyPlan().join("s4").join(None).leave("s0").reweight("s1", 2.0)
        )
        assert plan.label() == "+s4+?-s0~s1"
        assert TopologyPlan().label() == "noop"


class TestWeightedPlacement:
    def test_vnode_count_scales_with_weight(self):
        ring = ShardRing(vnodes=16)
        assert ring.vnode_count(1.0) == 16
        assert ring.vnode_count(2.0) == 32
        assert ring.vnode_count(0.5) == 8
        assert ring.vnode_count(0.001) == 1  # floored: every member owns

    def test_add_shard_places_weighted_points(self):
        ring = ShardRing(vnodes=16)
        ring.add_shard("light", weight=0.5)
        ring.add_shard("heavy", weight=2.0)
        counts = {"light": 0, "heavy": 0}
        for owner in ring._owners:
            counts[owner] += 1
        assert counts == {"light": 8, "heavy": 32}
        assert ring.weight_of("light") == 0.5
        assert ring.weight_of("heavy") == 2.0

    def test_weight_of_unknown_shard_rejected(self):
        with pytest.raises(SpeedError):
            ring_with("a").weight_of("ghost")

    def test_heavier_shard_owns_proportionally_more(self):
        ring = ShardRing(vnodes=64)
        ring.add_shard("a", weight=1.0)
        ring.add_shard("b", weight=3.0)
        share = ring.load_share("b")
        assert 0.75 * 0.8 <= share <= 0.75 * 1.2

    def test_weights_survive_a_finished_transition(self):
        ring = ShardRing(vnodes=8)
        ring.add_shard("a", weight=2.0)
        ring.add_shard("b")
        for rng in ring.begin_plan(TopologyPlan().join("c", 0.5), 2):
            ring.commit_range(rng.index)
        ring.finish()
        assert ring.weight_of("a") == 2.0
        assert ring.weight_of("c") == 0.5

    def test_abort_restores_previous_weights(self):
        ring = ShardRing(vnodes=8)
        ring.add_shard("a", weight=2.0)
        ring.add_shard("b")
        ring.begin_plan(TopologyPlan().reweight("a", 0.5), 2)
        ring.abort_transition()
        assert ring.weight_of("a") == 2.0


class TestBeginPlan:
    def members(self, vnodes=8):
        return ring_with("shard-0", "shard-1", "shard-2", "shard-3",
                         vnodes=vnodes)

    def test_multi_change_plan_opens_one_window(self):
        ring = self.members()
        plan = (
            TopologyPlan()
            .join("shard-4", weight=2.0).join("shard-5")
            .leave("shard-0").reweight("shard-1", 0.5)
        )
        ranges = ring.begin_plan(plan, 2)
        assert ring.in_transition
        assert ranges
        touched = {s for r in ranges for s in (*r.sources, *r.dests)}
        assert {"shard-4", "shard-5"} <= touched
        assert "shard-0" not in ring.pending_shards
        assert set(ring.pending_shards) == {
            "shard-1", "shard-2", "shard-3", "shard-4", "shard-5"
        }
        for rng in ranges:
            ring.commit_range(rng.index)
        ring.finish()
        assert ring.weight_of("shard-4") == 2.0
        assert ring.weight_of("shard-1") == 0.5
        assert "shard-0" not in ring

    def test_planned_diff_never_exceeds_serialized_total(self):
        # One diff to the final ring moves at most what N serialized
        # windows move: each range hands off once, never through an
        # intermediate ring that a later join re-shuffles.
        planned = self.members()
        plan = TopologyPlan()
        for i in range(4, 8):
            plan = plan.join(f"shard-{i}")
        planned_width = sum(r.width for r in planned.begin_plan(plan, 2))

        serial = self.members()
        serial_width = 0
        for i in range(4, 8):
            for rng in serial.begin_plan(TopologyPlan().join(f"shard-{i}"), 2):
                serial_width += rng.width
                serial.commit_range(rng.index)
            serial.finish()
        assert planned_width <= serial_width
        assert planned.pending_shards == serial.shards

    def test_second_plan_rejected_while_open(self):
        ring = self.members()
        ring.begin_plan(TopologyPlan().join("shard-4"), 2)
        with pytest.raises(MigrationInProgressError):
            ring.begin_plan(TopologyPlan().join("shard-5"), 2)

    def test_unnamed_join_rejected_at_ring_level(self):
        ring = self.members()
        with pytest.raises(SpeedError, match="concrete join shard ids"):
            ring.begin_plan(TopologyPlan().join(None), 2)

    def test_unknown_leaver_and_known_joiner_rejected(self):
        ring = self.members()
        with pytest.raises(SpeedError):
            ring.begin_plan(TopologyPlan().leave("ghost"), 2)
        with pytest.raises(SpeedError):
            ring.begin_plan(TopologyPlan().join("shard-0"), 2)

    def test_plan_may_not_drain_the_whole_ring(self):
        ring = ring_with("a", "b", vnodes=8)
        with pytest.raises(MigrationStateError):
            ring.begin_plan(TopologyPlan().leave("a").leave("b"), 2)

    def test_abort_restores_membership(self):
        ring = self.members()
        before = ring.shards
        ring.begin_plan(
            TopologyPlan().join("shard-4").leave("shard-0"), 2
        )
        ring.abort_transition()
        assert ring.shards == before
        assert not ring.in_transition


class TestWrapMergePin:
    """Pin the ``_begin`` wrap-around merge: a movement contiguous
    *through zero* is one range (one hand-off, one WAL commit mark), not
    a pre-zero slice plus a separate wrap slice."""

    def test_join_moving_a_range_through_zero_yields_one_range(self):
        # Deterministic scenario (sha256 placement): joining "j21" to a
        # two-shard ring at vnodes=4 moves a slice that spans point 0.
        ring = ring_with("shard-0", "shard-1", vnodes=4)
        ranges = ring.begin_plan(TopologyPlan().join("j21"), 2)
        wraps = [r for r in ranges if r.lo > r.hi]
        assert len(wraps) == 1
        [wrap] = wraps
        # The merge fired: the wrap range starts before the last merged
        # boundary, i.e. it absorbed the pre-zero slice with the same
        # movement instead of leaving it as a second range.
        boundaries = sorted(set(ring._points) | set(ring._next._points))
        assert wrap.lo < boundaries[-1]
        assert wrap.contains(boundaries[-1])
        # No other range duplicates the movement adjacent to the wrap.
        for rng in ranges:
            if rng is not wrap:
                assert not (
                    rng.hi == wrap.lo
                    and rng.sources == wrap.sources
                    and rng.dests == wrap.dests
                )

    def test_every_boundary_lands_in_at_most_one_range(self):
        ring = ring_with("shard-0", "shard-1", vnodes=4)
        ranges = ring.begin_plan(TopologyPlan().join("j21"), 2)
        boundaries = sorted(set(ring._points) | set(ring._next._points))
        for point in boundaries + [0, RING_SIZE - 1]:
            covering = [r for r in ranges if r.contains(point)]
            assert len(covering) <= 1


class TestBoundarySemantics:
    def test_tag_exactly_on_a_vnode_point_owned_by_that_vnode(self):
        # bisect_left: a tag landing exactly on a vnode point belongs to
        # that vnode's shard (the interval is (prev, point]).
        ring = ring_with("a", "b", "c", vnodes=8)
        for idx, point in enumerate(ring._points):
            assert ring.primary(point_tag(point)) == ring._owners[idx]

    def test_range_ends_agree_with_owner_lookup(self):
        # MigrationRange is (lo, hi]: the inclusive end resolves to the
        # range's dests under the pending ring and its sources under the
        # old one; the exclusive start is outside the range.
        ring = ring_with("shard-0", "shard-1", "shard-2", vnodes=8)
        ranges = ring.begin_plan(TopologyPlan().join("shard-3"), 2)
        for rng in ranges:
            assert rng.contains(rng.hi)
            assert not rng.contains(rng.lo)
            hi_tag = point_tag(rng.hi)
            assert ring.write_owners(hi_tag, 2) == list(rng.dests)
            assert ring.read_owners(hi_tag, 2)[: len(rng.sources)] == list(
                rng.sources
            )

    def test_wrap_region_owned_by_first_vnode(self):
        # A tag past the last vnode point wraps to the first point's
        # owner — the same owner owned_width charges the wrap interval to.
        ring = ring_with("a", "b", vnodes=8)
        assert ring.primary(point_tag(RING_SIZE - 1)) == ring._owners[0]
        assert ring.primary(point_tag(0)) == ring._owners[0]

    def test_owned_widths_are_exact_and_partition_the_ring(self):
        ring = ring_with("a", "b", "c", vnodes=8)
        widths = {s: ring.owned_width(s) for s in ring.shards}
        assert sum(widths.values()) == RING_SIZE
        assert all(w > 0 for w in widths.values())
        # The wrap slice (from the last point through zero to the first)
        # is charged exactly once, to the first point's owner.
        wrap_width = ring._points[0] + RING_SIZE - ring._points[-1]
        assert widths[ring._owners[0]] >= wrap_width

    def test_contains_matches_owner_diff_on_a_wrap_range(self):
        rng = MigrationRange(
            0, RING_SIZE - 10, 10, ("a",), ("b",)
        )
        assert rng.contains(RING_SIZE - 1)
        assert rng.contains(0)
        assert rng.contains(10)
        assert not rng.contains(11)
        assert not rng.contains(RING_SIZE - 10)
        assert rng.width == 20


@for_all(
    lists_of(integers(1, 40), min_len=1, max_len=6),
    integers(1, 16),
    runs=40,
)
def test_weighted_load_shares_partition_the_ring(tenth_weights, vnodes):
    """Under any weighted membership the per-shard owned widths are an
    exact integer partition of the ring, so the float shares sum to 1."""
    ring = ShardRing(vnodes=vnodes)
    for i, tenths in enumerate(tenth_weights):
        ring.add_shard(f"prop-{i}", weight=tenths / 10.0)
    assert sum(ring.owned_width(s) for s in ring.shards) == RING_SIZE
    assert sum(ring.load_share(s) for s in ring.shards) == pytest.approx(1.0)
    for shard in ring.shards:
        assert ring.owned_width(shard) > 0


class TestAbortContract:
    def test_abort_without_transition_raises(self):
        ring = ring_with("a", "b")
        with pytest.raises(MigrationStateError, match="no transition"):
            ring.abort_transition()

    def test_double_abort_raises(self):
        ring = ring_with("a", "b")
        ring.begin_plan(TopologyPlan().join("c"), 2)
        ring.abort_transition()
        with pytest.raises(MigrationStateError, match="no transition"):
            ring.abort_transition()

    def test_migrator_double_abort_surfaces(self):
        # The ring no longer swallows a second abort, and neither does
        # the migrator: abort() marks the migration finished, so another
        # abort (or a finish) raises instead of re-running cleanup.
        d = make_cluster(n_shards=3, replication_factor=2, seed=b"dbl-abort")
        router = raw_router(d)
        for i in range(8):
            assert router.call(make_put(i, prefix=b"dbl")).accepted
        migrator = d.cluster.begin_plan(TopologyPlan().join())
        d.cluster.abort_plan(migrator)
        assert not d.cluster.ring.in_transition
        with pytest.raises(MigrationStateError):
            migrator.abort()
        with pytest.raises(MigrationStateError):
            migrator.finish()


class TestClusterPlan:
    def warm(self, seed, n_shards=3):
        d = make_cluster(n_shards=n_shards, replication_factor=2, seed=seed)
        router = raw_router(d)
        puts = [make_put(i, prefix=b"plan") for i in range(24)]
        for put in puts:
            assert router.call(put).accepted
        return d, router, puts

    def ownership_exact(self, cluster, puts):
        return all(
            cluster.holders_of(p.tag) == sorted(cluster.owners_of(p.tag))
            for p in puts
        )

    def test_plan_spawns_joiners_and_moves_once(self):
        d, router, puts = self.warm(b"cluster-plan")
        plan = (
            TopologyPlan()
            .join(None, weight=2.0).join("big-2")
            .leave("shard-0").reweight("shard-1", 0.5)
        )
        migrator = d.cluster.begin_plan(plan)
        assert migrator.label == "+shard-3+big-2-shard-0~shard-1"
        assert "big-2" in migrator.joiners and len(migrator.joiners) == 2
        assert migrator.leavers == frozenset({"shard-0"})
        migrator.run()
        assert "shard-0" not in d.cluster.shards
        assert "big-2" in d.cluster.shards
        assert d.cluster.ring.weight_of("big-2") == 1.0
        assert d.cluster.ring.weight_of("shard-1") == 0.5
        assert self.ownership_exact(d.cluster, puts)
        for put in puts:
            assert router.call(make_get(put)).found

    def test_abort_plan_despawns_every_joiner(self):
        d, router, puts = self.warm(b"cluster-plan-abort")
        before = set(d.cluster.shards)
        owners_before = {p.tag: d.cluster.owners_of(p.tag) for p in puts}
        plan = TopologyPlan().join(None).join(None).leave("shard-2")
        migrator = d.cluster.begin_plan(plan)
        for _ in range(len(migrator.pending_ranges()) // 2):
            migrator.step()
        d.cluster.abort_plan(migrator)
        assert set(d.cluster.shards) == before
        assert not d.cluster.ring.in_transition
        assert owners_before == {
            p.tag: d.cluster.owners_of(p.tag) for p in puts
        }
        for put in puts:
            assert router.call(make_get(put)).found


class TestRefusedOpen:
    """A refused open leaves no trace: the plan is named and checked
    against cluster and ring before any joiner machine is spawned."""

    def test_refusal_spawns_nothing_and_burns_no_name(self):
        session = connect(shards=3, replication_factor=2, seed=b"refused",
                          tracing=False)
        cluster, router = session.cluster, session.runtime.client
        session.remove_shard("shard-0")

        def state():
            return (sorted(cluster.shards), router.shard_ids,
                    cluster.ring.shards, cluster.ring.in_transition)

        settled = state()
        assert settled[:3] == (["shard-1", "shard-2"],) + (("shard-1", "shard-2"),) * 2
        for refused in (
            TopologyPlan().join("shard-0"),                  # a departed id
            TopologyPlan().join("fresh-a").join("shard-0"),  # ... after a fresh one
            TopologyPlan().join("fresh-a").join().leave("ghost"),
            TopologyPlan().join().reweight("ghost", 2.0),
            TopologyPlan().join("fresh-a").join("shard-1"),  # a member's id
            TopologyPlan().join("shard-4").join(),  # ... or the next auto-name
        ):
            with pytest.raises(SpeedError) as excinfo:
                session.apply_topology(refused)
            assert excinfo.value.code in ("migration_error", "speed_error")
            assert state() == settled
        with pytest.raises(MigrationError, match="'shard-0' was used"):
            session.add_shard("shard-0")
        # No refused attempt advanced the auto-name or burnt a name.
        assert session.add_shard().shard_id == "shard-3"
        assert session.add_shard("fresh-a").shard_id == "fresh-a"
        assert session.add_shard().shard_id == "shard-5"

    def test_refused_second_open_leaves_the_open_window_alone(self):
        d = make_cluster(n_shards=3, replication_factor=2, seed=b"refused-open")
        migrator = d.cluster.begin_plan(TopologyPlan().join())
        before = (sorted(d.cluster.shards), d.cluster.ring.pending_shards)
        with pytest.raises(MigrationInProgressError):
            d.cluster.begin_plan(TopologyPlan().join("late"))
        assert (sorted(d.cluster.shards), d.cluster.ring.pending_shards) == before
        migrator.run()
        (late,) = d.cluster.begin_plan(TopologyPlan().join("late")).joiners
        assert late == "late"

    def test_an_aborted_joiners_id_is_used_up(self):
        d = make_cluster(n_shards=3, replication_factor=2, seed=b"refused-abort")
        d.cluster.abort_plan(d.cluster.begin_plan(TopologyPlan().join("once")))
        with pytest.raises(MigrationError, match="'once' was used"):
            d.cluster.begin_plan(TopologyPlan().join("once"))
        assert sorted(d.cluster.shards) == ["shard-0", "shard-1", "shard-2"]


class TestSessionTopology:
    def warm_session(self, seed, shards=3):
        session = connect(shards=shards, replication_factor=2, seed=seed,
                          tracing=False)

        @session.mark(version="1.0")
        def plan_kernel(data: bytes) -> bytes:
            return bytes(b ^ 0x3C for b in data)

        inputs = [i.to_bytes(4, "big") * 16 for i in range(24)]
        values = plan_kernel.map(inputs)
        session.flush_puts()
        return session, plan_kernel, inputs, values

    def test_apply_topology_reports_and_serves(self):
        session, kernel, inputs, values = self.warm_session(b"sess-plan")
        plan = (
            TopologyPlan().join("grown", weight=2.0).join(None)
            .leave("shard-0").reweight("shard-1", 0.5)
        )
        report = session.apply_topology(plan)
        assert isinstance(report, TopologyReport)
        assert report.action == "apply_topology"
        assert report.ranges_moved > 0
        assert kernel.map(inputs) == values
        keys = session.metrics.snapshot()
        assert any(k.startswith("store.grown.") for k in keys)
        assert not any(k.startswith("store.shard-0.") for k in keys)

    def test_rebalance_with_weights_moves_via_one_window(self):
        session, kernel, inputs, values = self.warm_session(b"sess-rew")
        report = session.rebalance(weights={"shard-0": 3.0})
        assert report.action == "rebalance"
        assert session.cluster.ring.weight_of("shard-0") == 3.0
        assert session.cluster.ring.load_share("shard-0") > 1 / 3
        assert kernel.map(inputs) == values

    def test_rebalance_to_current_weights_is_a_noop(self):
        session, *_ = self.warm_session(b"sess-rew-noop")
        report = session.rebalance(weights={"shard-1": 1.0})
        assert report.action == "rebalance"
        assert report.entries_moved == 0
        assert report.ranges_moved == 0
        assert not session.cluster.ring.in_transition
