"""The GET planner's rule, as properties over random rings.

``ClusterRouter.plan_gets`` starts every fresh walk at its primary and
moves it to another owner of its current replica set only where that
evens out the round.  Over random rings of 4-8 shards at RF 2-3, with
some walks under way, some breakers open and sometimes an open topology
window, every plan must: cover each item once, in the group of the
owner it asks first; never grow the largest group past the
primary-only plan's; send each fresh walk first to one of its current
replica set (the old owners, inside a window); never move a walk onto
an open breaker while one of its replicas has a closed breaker; be
the same plan for equal inputs; and be what :func:`reference_plan`, the
rule restated, gives.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.ring import ShardRing, TopologyPlan
from repro.cluster.router import ClusterRouter, GetWalk
from repro.crypto.hashes import sha256
from repro.net.circuit import OPEN, BreakerConfig
from repro.net.messages import GetRequest

BREAKER = BreakerConfig(failure_threshold=1, reset_timeout_s=None, reset_after_skips=6)
JOINER = "shard-j"

cases = st.fixed_dictionaries({
    "shards": st.integers(4, 8),
    "rf": st.integers(2, 3),
    "window": st.booleans(),
    "open": st.sets(st.integers(0, 7), max_size=3),
    # Per item: a tag seed and whether its walk is already under way.
    "items": st.lists(st.tuples(st.integers(0, 10_000), st.booleans()), min_size=1, max_size=40),
})


def reference_plan(owner_lists, rf, opened, fixed=()):
    """Each item's first owner by the rule, restated: ``owner_lists[i]``
    is item ``i``'s owners in ring order (next first, and never moved,
    when ``fixed[i]``: a walk under way).  Every item starts at its head;
    passes in item order move a movable item to the least-loaded other
    owner among its first ``rf`` (the earliest on a tie), skipping open
    breakers while a replica's breaker is closed, whenever that owner
    would then hold fewer items than the one it leaves, until a pass
    moves nothing.  Loads are recounted from scratch at every item."""
    fixed = fixed or [False] * len(owner_lists)
    at = [owners[0] if owners else None for owners in owner_lists]
    moved = True
    while moved:
        moved = False
        for i, owners in enumerate(owner_lists):
            replicas = owners[:rf]
            if fixed[i] or not replicas:
                continue
            closed = [s for s in replicas if s not in opened]
            load = Counter(at)
            best = min(closed or replicas, key=lambda s: (load[s], replicas.index(s)))
            if load[best] + 1 < load[at[i]]:
                at[i], moved = best, True
    return at


def build(case):
    """A router over a fresh ring (every shard connected, the joiner's
    window open if asked) and the case's walks, fresh or under way."""
    ring = ShardRing(vnodes=16)
    for s in range(case["shards"]):
        ring.add_shard(f"shard-{s}")
    if case["window"]:
        ring.begin_plan(TopologyPlan().join(JOINER), case["rf"])
    clients = {sid: None for sid in {*ring.shards, *ring.pending_shards}}
    router = ClusterRouter(ring, clients, replication_factor=case["rf"])
    router.enable_breakers(BREAKER)
    for s in sorted(case["open"]):
        if s < case["shards"]:
            router._breaker(f"shard-{s}").record_failure()
    walks = []
    for seed, under_way in case["items"]:
        walk = GetWalk(GetRequest(tag=sha256(b"plan-%d" % seed), app_id="plan"))
        if under_way:  # its primary missed: its next owner is fixed
            owners = router._read_owners(walk.tag)
            walk.ring, walk.owners, walk.missed = owners, owners[1:], owners[:1]
        walks.append(walk)
    return router, walks


@settings(max_examples=150, deadline=None)
@given(cases)
def test_a_plan_evens_its_groups_within_each_items_replica_set(case):
    router, walks = build(case)
    rf = case["rf"]
    ring_owners = [router._read_owners(w.tag) for w in walks]
    fresh = [not w.under_way for w in walks]
    # Per item, its owners to ask from, next first: a fresh walk's in
    # ring order, a walk under way's as they are.
    asks = [
        owners if is_fresh else w.owners for w, owners, is_fresh in zip(walks, ring_owners, fresh)
    ]
    primary_only = Counter(owners[0] for owners in asks if owners)
    opened = {s for s, b in router._breakers.items() if b.state == OPEN}
    expected = reference_plan(asks, rf, opened, [not is_fresh for is_fresh in fresh])

    plan = router.plan_gets(walks)

    assert sorted(i for group in plan for i in group) == list(range(len(walks)))
    for group in plan:
        assert len({walks[i].owners[0] if walks[i].owners else None for i in group}) == 1
    assert max(map(len, plan)) <= max(1, *primary_only.values())
    for walk, owners, is_fresh in zip(walks, ring_owners, fresh):
        if not is_fresh or not owners:
            continue
        replicas = owners[:rf]
        first = walk.owners[0]
        assert first in replicas
        assert sorted(walk.owners) == sorted(owners)
        assert walk.owners[1:] == [s for s in owners if s != first]  # the rest in ring order
        if first != owners[0] and any(s not in opened for s in replicas):
            assert first not in opened
    firsts = [w.owners[0] if w.owners else None for w in walks]
    assert firsts == expected
    # Equal inputs, equal plans: twice on the same walks, once on copies.
    assert router.plan_gets(walks) == plan
    assert [w.owners[0] if w.owners else None for w in walks] == firsts
    again, copies = build(case)
    assert again.plan_gets(copies) == plan
    assert [w.owners[0] if w.owners else None for w in copies] == firsts
