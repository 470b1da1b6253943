"""Pipelined router surface: submit()/wait(), grouped GET sub-batches.

Semantics must match the synchronous ``call``/``call_batch`` path item
for item — including failover between submit and wait, read-repair on a
primary live miss, and unavailable reporting when every owner is gone.
"""

import pytest

from repro.errors import ProtocolError

from .conftest import make_cluster, make_get, make_put, raw_router


def warm(router, n, prefix=b"pipe"):
    puts = [make_put(i, prefix=prefix) for i in range(n)]
    for put in puts:
        assert router.call(put).accepted
    return puts


class TestPerOpPipeline:
    def test_submitted_gets_match_synchronous_calls(self):
        d = make_cluster()
        router = raw_router(d)
        puts = warm(router, 6)
        handles = [router.submit(make_get(p)) for p in puts]
        responses = [router.wait(h) for h in handles]
        for put, response in zip(puts, responses):
            assert response.found
            assert response.sealed_result == router.call(
                make_get(put)
            ).sealed_result

    def test_submitted_puts_match_synchronous_calls(self):
        d = make_cluster()
        router = raw_router(d)
        puts = [make_put(i, prefix=b"pipe-put") for i in range(4)]
        handles = [router.submit(p) for p in puts]
        assert all(router.wait(h).accepted for h in handles)
        for put in puts:
            assert router.call(make_get(put)).found

    def test_get_fails_over_when_primary_is_down_at_submit(self):
        d = make_cluster(n_shards=4, replication_factor=2)
        router = raw_router(d)
        puts = warm(router, 8)
        target = puts[0]
        primary = d.cluster.ring.owners(target.tag)[0]
        d.cluster.kill_shard(primary)  # submit cannot reach the primary
        failovers0 = router.stats.failovers
        handle = router.submit(make_get(target))
        response = router.wait(handle)
        assert response.found
        assert router.stats.failovers == failovers0 + 1
        d.cluster.revive_shard(primary)

    def test_wait_on_unknown_handle_raises(self):
        d = make_cluster()
        router = raw_router(d)
        with pytest.raises(ProtocolError):
            router.wait(12345)


class TestGroupedPipeline:
    def test_plan_gets_partitions_by_primary_and_covers_everything(self):
        d = make_cluster()
        router = raw_router(d)
        puts = warm(router, 12)
        gets = [make_get(p) for p in puts]
        plan = router.plan_gets(gets)
        covered = sorted(i for group in plan for i in group)
        assert covered == list(range(len(gets)))
        ring = d.cluster.ring
        for group in plan:
            primaries = {ring.owners(gets[i].tag)[0] for i in group}
            assert len(primaries) == 1

    def test_grouped_wait_matches_call_batch(self):
        d = make_cluster()
        router = raw_router(d)
        puts = warm(router, 10)
        gets = [make_get(p) for p in puts]
        expected = [r.sealed_result for r in router.call_batch(gets)]
        plan = router.plan_gets(gets)
        handles = [
            (group, router.submit_gets([gets[i] for i in group]))
            for group in plan
        ]
        got = [None] * len(gets)
        for group, handle in handles:
            for i, response in zip(group, router.wait_gets(handle, len(group))):
                assert response.found
                got[i] = response.sealed_result
        assert got == expected

    def test_group_fails_over_when_primary_is_down_at_submit(self):
        d = make_cluster(n_shards=4, replication_factor=2)
        router = raw_router(d)
        puts = warm(router, 12)
        gets = [make_get(p) for p in puts]
        plan = router.plan_gets(gets)
        group = max(plan, key=len)
        primary = d.cluster.ring.owners(gets[group[0]].tag)[0]
        d.cluster.kill_shard(primary)  # the whole group's record is lost
        failovers0 = router.stats.failovers
        handle = router.submit_gets([gets[i] for i in group])
        responses = router.wait_gets(handle, len(group))
        assert all(r.found for r in responses)
        assert router.stats.failovers == failovers0 + len(group)
        d.cluster.revive_shard(primary)

    def test_primary_live_miss_consults_replicas_and_repairs(self):
        d = make_cluster(n_shards=4, replication_factor=2)
        router = raw_router(d)
        put = make_put(0, prefix=b"repair")
        primary = d.cluster.ring.owners(put.tag)[0]
        d.cluster.kill_shard(primary)      # write lands on the replica only
        assert router.call(put).accepted
        d.cluster.revive_shard(primary)    # primary back, but empty
        repairs0 = router.stats.read_repairs
        handle = router.submit_gets([make_get(put)])
        responses = router.wait_gets(handle, 1)
        assert responses[0].found
        assert router.stats.read_repairs == repairs0 + 1

    def test_no_live_owner_reports_unavailable_not_lost(self):
        d = make_cluster(n_shards=2, replication_factor=1)
        router = raw_router(d)
        puts = warm(router, 4)
        gets = [make_get(p) for p in puts]
        for sid in list(d.cluster.shard_ids)[1:]:
            d.cluster.kill_shard(sid)
        plan = router.plan_gets(gets)
        unavailable0 = router.stats.unavailable
        for group in plan:
            handle = router.submit_gets([gets[i] for i in group])
            router.wait_gets(handle, len(group))
        assert router.stats.unavailable > unavailable0 or all(
            router.call(g).found
            for group in plan for g in [gets[i] for i in group]
        )

    def test_wait_gets_rejects_item_count_mismatch_and_keeps_slot(self):
        d = make_cluster()
        router = raw_router(d)
        puts = warm(router, 2)
        gets = [make_get(p) for p in puts]
        handle = router.submit_gets(gets)
        with pytest.raises(ProtocolError):
            router.wait_gets(handle, 5)
        responses = router.wait_gets(handle, 2)  # slot survived the error
        assert all(r.found for r in responses)

class TestGroupedPutPipeline:
    def test_plan_puts_partitions_by_primary_and_covers_everything(self):
        d = make_cluster()
        router = raw_router(d)
        puts = [make_put(i, prefix=b"gput") for i in range(12)]
        plan = router.plan_puts(puts)
        covered = sorted(i for group in plan for i in group)
        assert covered == list(range(len(puts)))
        ring = d.cluster.ring
        for group in plan:
            primaries = {ring.owners(puts[i].tag)[0] for i in group}
            assert len(primaries) == 1

    def test_grouped_put_matches_synchronous_calls(self):
        d = make_cluster(n_shards=4, replication_factor=2)
        router = raw_router(d)
        puts = [make_put(i, prefix=b"gput-sync") for i in range(10)]
        plan = router.plan_puts(puts)
        handles = [
            (group, router.submit_puts([puts[i] for i in group]))
            for group in plan
        ]
        accepted = [None] * len(puts)
        for group, handle in handles:
            for i, response in zip(group, router.wait_puts(handle, len(group))):
                accepted[i] = response.accepted
        assert all(accepted)
        # Same durability as the synchronous path: fully replicated,
        # every entry readable.
        for put in puts:
            assert len(d.cluster.holders_of(put.tag)) == 2
            assert router.call(make_get(put)).found

    def test_grouped_put_reports_no_live_owner(self):
        d = make_cluster(n_shards=2, replication_factor=1)
        router = raw_router(d)
        puts = [make_put(i, prefix=b"gput-dead") for i in range(6)]
        dead = list(d.cluster.shard_ids)[1]
        d.cluster.kill_shard(dead)
        plan = router.plan_puts(puts)
        responses = [None] * len(puts)
        for group in plan:
            handle = router.submit_puts([puts[i] for i in group])
            for i, response in zip(group, router.wait_puts(handle, len(group))):
                responses[i] = response
        ring = d.cluster.ring
        for put, response in zip(puts, responses):
            if ring.owners(put.tag)[0] == dead:
                assert not response.accepted
                assert "no_live_owner" in response.reason
            else:
                assert response.accepted

    def test_wait_puts_rejects_item_count_mismatch_and_keeps_slot(self):
        d = make_cluster()
        router = raw_router(d)
        puts = [make_put(i, prefix=b"gput-count") for i in range(2)]
        handle = router.submit_puts(puts)
        with pytest.raises(ProtocolError):
            router.wait_puts(handle, 5)
        responses = router.wait_puts(handle, 2)  # slot survived the error
        assert all(r.accepted for r in responses)

    def test_wait_and_wait_gets_refuse_each_others_slots(self):
        """Slots differ only by kind and item count: ``wait`` refuses a
        two-item slot, ``wait_gets`` a PUT slot, and both still settle."""
        d = make_cluster()
        router = raw_router(d)
        puts = warm(router, 2)
        group_handle = router.submit_gets([make_get(p) for p in puts])
        put_handle = router.submit(make_put(9, prefix=b"pipe"))
        with pytest.raises(ProtocolError):
            router.wait(group_handle)
        with pytest.raises(ProtocolError):
            router.wait_gets(put_handle)
        # Both slots survived the mismatch and still settle.
        assert all(r.found for r in router.wait_gets(group_handle, 2))
        assert router.wait(put_handle).accepted
