"""Consistent-hash ring: ownership, balance, and minimal disruption."""

import pytest

from repro.cluster.ring import RING_SIZE, ShardRing, tag_point
from repro.crypto.hashes import sha256
from repro.errors import SpeedError


def tags(n, prefix=b"ring"):
    return [sha256(prefix + i.to_bytes(4, "big")) for i in range(n)]


def ring_with(*shard_ids, vnodes=64):
    ring = ShardRing(vnodes=vnodes)
    for shard_id in shard_ids:
        ring.add_shard(shard_id)
    return ring


class TestTagPoint:
    def test_leading_eight_bytes(self):
        tag = bytes(range(32))
        assert tag_point(tag) == int.from_bytes(tag[:8], "big")
        assert tag_point(tag) < RING_SIZE

    def test_short_tag_rejected(self):
        with pytest.raises(SpeedError):
            tag_point(b"short")


class TestMembership:
    def test_add_remove(self):
        ring = ring_with("a", "b")
        assert ring.shards == ("a", "b")
        assert "a" in ring and len(ring) == 2
        ring.remove_shard("a")
        assert ring.shards == ("b",)

    def test_duplicate_add_rejected(self):
        ring = ring_with("a")
        with pytest.raises(SpeedError):
            ring.add_shard("a")

    def test_remove_unknown_rejected(self):
        with pytest.raises(SpeedError):
            ring_with("a").remove_shard("ghost")

    def test_empty_ring_has_no_owners(self):
        with pytest.raises(SpeedError):
            ShardRing(vnodes=64).owners(tags(1)[0])


class TestOwnership:
    def test_deterministic_across_instances(self):
        r1 = ring_with("a", "b", "c")
        r2 = ring_with("c", "a", "b")  # insertion order must not matter
        for tag in tags(64):
            assert r1.owners(tag, 2) == r2.owners(tag, 2)

    def test_owners_distinct_and_primary_first(self):
        ring = ring_with("a", "b", "c", "d")
        for tag in tags(64):
            owners = ring.owners(tag, 3)
            assert len(owners) == len(set(owners)) == 3
            assert owners[0] == ring.owners(tag)[0]

    def test_replication_clamped_to_shard_count(self):
        ring = ring_with("a", "b")
        for tag in tags(16):
            assert sorted(ring.owners(tag, 5)) == ["a", "b"]

    def test_single_shard_owns_everything(self):
        ring = ring_with("solo")
        for tag in tags(16):
            assert ring.owners(tag, 2) == ["solo"]
        assert ring.load_share("solo") == 1.0


class TestBalanceAndDisruption:
    def test_load_shares_sum_to_one(self):
        ring = ring_with("a", "b", "c", "d")
        total = sum(ring.load_share(s) for s in ring.shards)
        assert total == pytest.approx(1.0)

    def test_vnodes_spread_load(self):
        ring = ring_with("a", "b", "c", "d", vnodes=128)
        corpus = tags(2000)
        counts = {s: 0 for s in ring.shards}
        for tag in corpus:
            counts[ring.owners(tag)[0]] += 1
        for count in counts.values():
            # Perfect balance is 500; vnodes keep skew well bounded.
            assert 250 <= count <= 750

    def test_removal_only_moves_the_removed_shards_tags(self):
        ring = ring_with("a", "b", "c", "d")
        corpus = tags(500)
        before = {tag: ring.owners(tag)[0] for tag in corpus}
        ring.remove_shard("d")
        for tag in corpus:
            if before[tag] != "d":
                assert ring.owners(tag)[0] == before[tag]
            else:
                assert ring.owners(tag)[0] != "d"

    def test_join_steals_only_what_it_now_owns(self):
        ring = ring_with("a", "b", "c")
        corpus = tags(500)
        before = {tag: ring.owners(tag)[0] for tag in corpus}
        ring.add_shard("d")
        moved = 0
        for tag in corpus:
            primary = ring.owners(tag)[0]
            if primary != before[tag]:
                assert primary == "d"  # only the newcomer gains tags
                moved += 1
        assert 0 < moved < len(corpus) / 2
