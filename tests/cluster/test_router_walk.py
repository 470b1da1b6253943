"""A GET's owners are walked in steps, one record per next owner.

Each row is a batch of GETs over a cluster whose owners mix states: live
and holding the entry, live and missing it, dead, behind an open circuit
breaker, or pending in a planned topology window.  Run through
``call_batch`` and through the pipelined engine, every item's answer and
every router counter equal what :func:`reference_walk` gives — each item
asks first the owner the plan's rule (:func:`reference_plan`) picks for
it, then the others one by one in ring order; the first hit wins, a hit
after a failed owner is a failover, and every live owner that missed
before the hit is read-repaired.  Only the counters of sends are per
record rather than per item (``get_timeouts``, ``circuit_skips`` and
``walk_records``), and each step sends exactly one record per distinct
next owner.  Who serves may change with the plan, what is served may
not: every answer equals the ring-order walk's.
"""

import pytest

import repro
from repro import TrustedLibrary, TrustedLibraryRegistry
from repro.cluster.ring import TopologyPlan
from repro.cluster.router import NO_LIVE_OWNER
from repro.engine import EngineConfig, PipelineEngine
from repro.net.circuit import OPEN, BreakerConfig

from .conftest import make_cluster, make_get, make_put, raw_router
from .test_router_plan import reference_plan

# Opens after three failures and stays open for six refused sends.
BREAKER = BreakerConfig(failure_threshold=3, reset_timeout_s=None, reset_after_skips=6)
JOINER = "shard-9"

ROWS = {
    "rf 1: one primary dead": dict(rf=1, dead=["shard-1"]),
    "rf 2: all live, some entries never written": dict(rf=2, unwritten={1, 4, 6}),
    "rf 2: a dead shard and a shard that missed the writes": dict(
        rf=2, dead=["shard-0"], missed=["shard-2"],
    ),
    "rf 2: breaker open on one shard, a second missed the writes": dict(
        rf=2, breaker_open=["shard-1"], missed=["shard-3"], unwritten={2},
    ),
    "rf 2: every owner of some items dead": dict(rf=2, dead=["shard-0", "shard-1"]),
    "rf 3: two dead, one missed the writes": dict(
        rf=3, dead=["shard-0", "shard-3"], missed=["shard-1"],
    ),
    "rf 3: breaker open, a dead shard, some never written": dict(
        rf=3, breaker_open=["shard-2"], dead=["shard-1"], unwritten={0, 5},
    ),
    "rf 2: planned window, a dead shard, the joiner asked": dict(
        rf=2, window=True, dead=["shard-1"], missed=["shard-2"],
    ),
}


def prepare(rf, n_items=8, dead=(), missed=(), breaker_open=(), unwritten=(), window=False):
    """A fresh 4-shard cluster and router, ``n_items`` PUTs written
    (all but ``unwritten``) while the ``missed`` shards were down, then
    the ``dead`` shards killed and the ``breaker_open`` shards refused."""
    d = make_cluster(n_shards=4, replication_factor=rf)
    router = raw_router(d)
    if window:  # writes land on the pending owners; reads ask the old ones first
        d.cluster.begin_plan(TopologyPlan().join(JOINER))
    puts = [make_put(i, prefix=b"walk") for i in range(n_items)]
    for shard in missed:
        d.cluster.kill_shard(shard)
    for i, put in enumerate(puts):
        if i not in unwritten:
            router.call(put)
    router.drain_responses()
    for shard in missed:
        d.cluster.revive_shard(shard)
    for shard in dead:
        d.cluster.kill_shard(shard)
    if breaker_open:
        router.enable_breakers(BREAKER)
        for shard in breaker_open:
            for _ in range(BREAKER.failure_threshold):
                router._breaker(shard).record_failure()
            assert router._breaker(shard).state == OPEN
    return d, router, puts


def ring_owners(d, router, put):
    rf = router.replication_factor
    return [s for s in d.cluster.ring.read_owners(put.tag, rf) if s in router.shard_ids]


def planned_firsts(owner_lists, rf, breaker_open, per_plan):
    """Each item's first owner, planned ``per_plan`` items at a time
    (``call_batch`` plans the whole batch, the engine each round)."""
    first = []
    for start in range(0, len(owner_lists), per_plan):
        first += reference_plan(owner_lists[start:start + per_plan], rf, set(breaker_open))
    return first


def reference_walk(d, router, puts, breaker_open, first=None):
    """Answers and counters by the per-item rule, plus the records each
    step must send: ``{(step, owner): [item, ...]}`` for owners that were
    asked and not refused by their breaker.  Item ``i`` asks ``first[i]``
    first (default: its primary), then its other owners in ring order."""
    answers, asks = [], {}
    counters = dict.fromkeys(
        ("gets_routed", "failovers", "read_repairs", "unavailable"), 0
    )
    failed_sends, refused_sends = set(), set()
    for item, put in enumerate(puts):
        counters["gets_routed"] += 1
        owners = ring_owners(d, router, put)
        if first is not None and first[item] is not None:
            owners = [first[item], *(s for s in owners if s != first[item])]
        holders = d.cluster.holders_of(put.tag)
        failed, missed, answer = 0, [], None
        for step, shard in enumerate(owners):
            if shard in breaker_open:
                refused_sends.add((step, shard))
                failed += 1
                continue
            asks.setdefault((step, shard), []).append(item)
            if not d.cluster.shard_alive(shard):
                failed_sends.add((step, shard))
                failed += 1
            elif shard in holders:
                counters["failovers"] += failed > 0
                counters["read_repairs"] += len(missed)
                answer = ("hit", put.sealed_result)
                break
            else:
                missed.append(shard)
        if answer is None:
            answer = "miss" if missed else "unavailable"
            counters["unavailable"] += answer == "unavailable"
        answers.append(answer)
    counters["get_timeouts"] = len(failed_sends | refused_sends)
    counters["circuit_skips"] = len(refused_sends)
    counters["walk_records"] = sum(1 for step, _ in asks if step)
    return answers, {k: v for k, v in counters.items() if v}, asks


DEPTH = 8


def through_call_batch(d, router, gets):
    return router.call_batch(gets)


def through_engine(d, router, gets):
    shard_clocks = {sid: node.platform.clock for sid, node in d.cluster.shards.items()}
    engine = PipelineEngine(
        router, d.platform.clock, shard_clocks=shard_clocks, config=EngineConfig(depth=DEPTH),
    )
    return engine.run_gets(gets).responses


# Items each entry point plans at once: the whole batch, or one round.
PER_PLAN = {through_call_batch: None, through_engine: DEPTH}


def outcome(response):
    if not response.found:
        return "unavailable" if response.reason == NO_LIVE_OWNER else "miss"
    return ("hit", response.sealed_result)


def spy_on_get_records(router, gets):
    """Log every GET record the router hands a shard client, as
    ``(shard, [item, ...])`` in send order."""
    item_of = {get.tag: i for i, get in enumerate(gets)}
    sent = []
    for shard, client in router._clients.items():
        for name in ("call_batch", "submit_gets"):
            def record(requests, _shard=shard, _send=getattr(client, name)):
                sent.append((_shard, [item_of[r.tag] for r in requests]))
                return _send(requests)
            setattr(client, name, record)
    return sent


@pytest.mark.parametrize("entry", [through_call_batch, through_engine])
@pytest.mark.parametrize("row", ROWS)
def test_a_step_walk_answers_and_counts_like_a_per_item_walk(row, entry):
    d, router, puts = prepare(**ROWS[row])
    gets = [make_get(put) for put in puts]
    breaker_open = ROWS[row].get("breaker_open", ())
    first = planned_firsts(
        [ring_owners(d, router, put) for put in puts], router.replication_factor,
        breaker_open, PER_PLAN[entry] or len(puts),
    )
    primaries = [ring_owners(d, router, put)[0] for put in puts]
    assert (first != primaries) == (router.replication_factor > 1)  # the plan bites
    answers, counters, asks = reference_walk(d, router, puts, breaker_open, first)
    assert answers == reference_walk(d, router, puts, breaker_open)[0]
    if ROWS[row].get("window"):
        assert any(shard == JOINER for _, shard in asks), "no walk reaches a pending owner"
    before = vars(router.stats).copy()
    sent = spy_on_get_records(router, gets)

    responses = entry(d, router, gets)

    assert [outcome(r) for r in responses] == answers
    delta = {k: v - before[k] for k, v in vars(router.stats).items() if v != before[k]}
    assert delta == counters
    # One record per distinct next owner, step by step, in shard order.
    expected = [
        (shard, asks[(step, shard)])
        for step in sorted({step for step, _ in asks})
        for shard in sorted(shard for s, shard in asks if s == step)
    ]
    assert sent == expected
    # Every repair is acknowledged, item by item.
    router.drain_responses()
    assert router.stats.repair_acks - before["repair_acks"] == counters.get("read_repairs", 0)


def test_a_step_repairs_each_missed_shard_with_one_batch():
    # RF 2: every item the revived shard-1 missed as primary hits at step 1.
    d, router, puts = prepare(rf=2, n_items=16, missed=["shard-1"])
    gets = [make_get(put) for put in puts]
    repaired = [get for get in gets if d.cluster.owners_of(get.tag)[0] == "shard-1"]
    batches = []
    for shard, client in router._clients.items():
        def record(requests, _shard=shard, _send=client.send_oneway_batch):
            batches.append((_shard, len(requests)))
            return _send(requests)
        client.send_oneway_batch = record
    assert all(r.found for r in router.call_batch(gets))
    assert len(repaired) > 1 and batches == [("shard-1", len(repaired))]
    assert router.stats.read_repairs == len(repaired)
    assert router.drain_responses() == []  # absorbed item by item
    assert router.stats.repair_acks == len(repaired)
    for get in repaired:
        assert "shard-1" in d.cluster.holders_of(get.tag)


def reverse(data: bytes) -> bytes:
    return data[::-1]


def test_a_mix2k_shaped_batch_walks_its_novel_items_in_one_record_per_replica():
    """4 shards x RF 2, depth 8, 32 inputs of which 8 are novel: a
    per-item walk sends one record per novel item (8); a step sends one
    per distinct replica shard (at most 4)."""
    libs = TrustedLibraryRegistry()
    libs.register(TrustedLibrary("walklib", "1.0").add("bytes rev(bytes)", reverse))
    desc = repro.FunctionDescription("walklib", "1.0", "bytes rev(bytes)")
    session = repro.connect(shards=4, replication_factor=2, libraries=libs, seed=b"walk")
    session.enable_pipeline(depth=8)
    warm = [b"warm-%d" % i for i in range(24)]
    session.execute_many(desc, warm)
    session.flush_puts()
    before = session.snapshot()
    novel = [b"novel-%d" % i for i in range(8)]
    results = session.execute_many_results(desc, warm + novel)
    after = session.snapshot()
    assert [r.hit for r in results] == [True] * 24 + [False] * 8
    assert after["router.gets"] - before["router.gets"] == 32
    assert after["router.walk_records"] - before["router.walk_records"] <= 4 < len(novel)
    assert after["router.get_timeouts"] == before["router.get_timeouts"]
