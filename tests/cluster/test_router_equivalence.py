"""Every router entry point is one path: same answers, same counters.

One scenario table, each row run once per dispatch style on a fresh,
identically prepared cluster.  A row passes when every style returns the
same outcome *and* moves :class:`RouterStats` by the same amounts, and
both match what the row says they should be.

A fire-and-forget send never waits, so it cannot see a timeout: for the
one-way style ``put_timeouts`` counts breaker refusals only, and "nobody
answered" shows as no ack at all rather than a ``no_live_owner`` verdict.
"""

from dataclasses import asdict

import pytest

from repro.cluster.router import NO_LIVE_OWNER
from repro.errors import NoLiveOwnerError
from repro.net.circuit import OPEN, BreakerConfig
from repro.store.quota import QuotaPolicy
from repro.store.resultstore import StoreConfig

from .conftest import make_cluster, make_get, make_put, raw_router

GET_STYLES = ("call", "submit_wait", "call_batch", "submit_gets")
PUT_STYLES = ("call", "submit_wait", "call_batch", "submit_puts", "oneway")

# The simulation harness's deterministic breaker (recovers by skip count).
SIM_BREAKER = BreakerConfig(failure_threshold=3, reset_timeout_s=None, reset_after_skips=6)


def dispatch(router, style, requests):
    """Run ``requests`` (all GETs or all PUTs sharing a primary) through
    one dispatch style; returns the per-item responses, ``None`` for an
    item nobody answered."""
    if style == "call":
        out = []
        for request in requests:
            try:
                out.append(router.call(request))
            except NoLiveOwnerError:
                out.append(None)
        return out
    if style == "submit_wait":
        out = []
        for handle in [router.submit(r) for r in requests]:
            try:
                out.append(router.wait(handle))
            except NoLiveOwnerError:
                out.append(None)
        return out
    if style == "call_batch":
        return router.call_batch(requests)
    if style == "submit_gets":
        return router.wait_gets(router.submit_gets(requests), len(requests))
    if style == "submit_puts":
        return router.wait_puts(router.submit_puts(requests), len(requests))
    assert style == "oneway"
    if len(requests) == 1:
        router.send_oneway(requests[0])
    else:
        router.send_oneway_batch(requests)
    acks = router.drain_responses()
    if not acks:
        return [None] * len(requests)
    (ack,) = acks
    return list(getattr(ack, "items", (ack,)))


def outcome(response):
    if response is None or getattr(response, "reason", "") == NO_LIVE_OWNER:
        return "unavailable"
    if hasattr(response, "found"):
        return ("hit", response.sealed_result) if response.found else "miss"
    return "accepted" if response.accepted else "rejected"


def run(style, prepare, kind):
    """One row under one style: (outcomes, RouterStats delta)."""
    deployment, router, puts = prepare()
    requests = [make_get(p) for p in puts] if kind == "get" else puts
    before = asdict(router.stats)
    outcomes = [outcome(r) for r in dispatch(router, style, requests)]
    delta = {
        key: value - before[key]
        for key, value in asdict(router.stats).items() if value != before[key]
    }
    return outcomes, delta


# -- preparing a cluster ---------------------------------------------------------

def prepared(rf=2, warm=True, kill=(), kill_before_warm=(), breaker_open_on=None,
             n_items=1, store_config=None):
    """A fresh cluster and router, ``n_items`` PUTs sharing one primary,
    and the owners (by ring position of the first PUT) treated as the
    row asks: killed before the warm-up write (so they miss it), killed
    after it, or alive behind an open breaker."""
    d = make_cluster(n_shards=4, replication_factor=rf, store_config=store_config)
    router = raw_router(d)
    ring = d.cluster.ring
    first = make_put(0, prefix=b"equiv")
    primary = ring.primary(first.tag)
    puts, i = [first], 1
    while len(puts) < n_items:
        put = make_put(i, prefix=b"equiv")
        if d.cluster.owners_of(put.tag) == d.cluster.owners_of(first.tag):
            puts.append(put)
        i += 1
    owners = d.cluster.owners_of(first.tag)
    assert owners[0] == primary
    for position in kill_before_warm:
        d.cluster.kill_shard(owners[position])
    if warm:
        for put in puts:
            assert router.call(put).accepted
    router.drain_responses()
    for position in kill_before_warm:
        d.cluster.revive_shard(owners[position])
    if breaker_open_on is not None:
        router.enable_breakers(SIM_BREAKER)
        shard = owners[breaker_open_on]
        d.cluster.kill_shard(shard)
        for _ in range(SIM_BREAKER.failure_threshold):
            router.call(make_get(first))  # each one fails on the dead shard
        d.cluster.revive_shard(shard)
        assert router._breaker(shard).state == OPEN
    for position in kill:
        d.cluster.kill_shard(owners[position])
    return d, router, puts


def primary_full(n_items=1):
    """Every shard admits one entry per app; the primary's is taken."""
    quota = StoreConfig(quota=QuotaPolicy(max_entries_per_app=1))
    d, router, puts = prepared(warm=False, n_items=n_items, store_config=quota)
    primary, replica = d.cluster.owners_of(puts[0].tag)
    i = 0
    while True:  # a filler the primary owns and the replica does not
        filler = make_put(i, prefix=b"filler")
        owners = d.cluster.owners_of(filler.tag)
        if primary in owners and replica not in owners:
            break
        i += 1
    assert router.call(filler).accepted
    return d, router, puts


GET_ROWS = {
    "all live": (
        lambda: prepared(), ["hit"], {"gets_routed": 1},
    ),
    "primary dead": (
        lambda: prepared(kill=[0]), ["hit"],
        {"gets_routed": 1, "get_timeouts": 1, "failovers": 1},
    ),
    "primary and first replica dead, rf 3": (
        lambda: prepared(rf=3, kill=[0, 1]), ["hit"],
        {"gets_routed": 1, "get_timeouts": 2, "failovers": 1},
    ),
    "primary live-miss, replica hit": (
        lambda: prepared(kill_before_warm=[0]), ["hit"],
        {"gets_routed": 1, "read_repairs": 1},
    ),
    "every owner dead": (
        lambda: prepared(kill=[0, 1]), ["unavailable"],
        {"gets_routed": 1, "get_timeouts": 2, "unavailable": 1},
    ),
    "breaker open on the primary": (
        lambda: prepared(breaker_open_on=0), ["hit"],
        {"gets_routed": 1, "get_timeouts": 1, "failovers": 1, "circuit_skips": 1},
    ),
    "miss everywhere": (
        lambda: prepared(warm=False), ["miss"], {"gets_routed": 1},
    ),
}

PUT_ROWS = {
    "all live": (
        lambda: prepared(warm=False), ["accepted"],
        {"puts_routed": 1, "replica_puts": 1, "replica_put_acks": 1},
    ),
    "primary dead": (
        lambda: prepared(warm=False, kill=[0]), ["accepted"],
        {"puts_routed": 1, "replica_puts": 1, "put_timeouts": 1},
    ),
    "primary and first replica dead, rf 3": (
        lambda: prepared(rf=3, warm=False, kill=[0, 1]), ["accepted"],
        {"puts_routed": 1, "replica_puts": 2, "put_timeouts": 2},
    ),
    "every owner dead": (
        lambda: prepared(warm=False, kill=[0, 1]), ["unavailable"],
        {"puts_routed": 1, "replica_puts": 1, "put_timeouts": 2},
    ),
    "breaker open on the primary": (
        lambda: prepared(breaker_open_on=0), ["accepted"],
        {"puts_routed": 1, "replica_puts": 1, "put_timeouts": 1, "circuit_skips": 1},
    ),
    "primary rejects, replica accepts": (
        primary_full, ["rejected"],
        {"puts_routed": 1, "replica_puts": 1, "replica_put_acks": 1},
    ),
}


def as_seen_by(style, expected_delta):
    """The row's counters as a style can observe them (module docstring)."""
    if style != "oneway":
        return expected_delta
    seen = dict(expected_delta)
    seen.pop("put_timeouts", None)
    if "circuit_skips" in seen:
        seen["put_timeouts"] = seen["circuit_skips"]
    return seen


@pytest.mark.parametrize("row", GET_ROWS)
def test_get_entry_points_agree(row):
    prepare, expected, expected_delta = GET_ROWS[row]
    for style in GET_STYLES:
        outcomes, delta = run(style, prepare, "get")
        assert [o if isinstance(o, str) else o[0] for o in outcomes] == expected, style
        assert delta == expected_delta, style


@pytest.mark.parametrize("row", PUT_ROWS)
def test_put_entry_points_agree(row):
    prepare, expected, expected_delta = PUT_ROWS[row]
    for style in PUT_STYLES:
        outcomes, delta = run(style, prepare, "put")
        assert outcomes == expected, style
        assert delta == as_seen_by(style, expected_delta), style


@pytest.mark.parametrize("style", GET_STYLES)
def test_a_hit_is_the_same_bytes_on_every_entry_point(style):
    reference, _ = run("call", lambda: prepared(n_items=3), "get")
    outcomes, _ = run(style, lambda: prepared(n_items=3), "get")
    assert outcomes == reference and all(o[0] == "hit" for o in outcomes)


@pytest.mark.parametrize("style", PUT_STYLES)
def test_a_group_whose_primary_rejects_is_rejected_item_for_item(style):
    # Three PUTs, one free slot per shard: the full primary rejects all
    # three, the replica accepts the first; the primary's word stands.
    outcomes, delta = run(style, lambda: primary_full(n_items=3), "put")
    assert outcomes == ["rejected"] * 3
    assert delta["replica_put_acks"] == 1 and delta["replica_put_rejects"] == 2


# -- the breaker is asked once per refused send -----------------------------------

def test_a_refused_group_costs_one_skip_and_admits_no_probe():
    d, router, puts = prepared(breaker_open_on=0, n_items=8)
    breaker = router._breaker(d.cluster.owners_of(puts[0].tag)[0])
    skips = breaker.skips
    gets = [make_get(p) for p in puts]
    responses = router.wait_gets(router.submit_gets(gets), len(gets))
    assert all(r.found for r in responses)
    assert router.stats.circuit_skips == 1
    assert breaker.skips == skips + 1
    assert breaker.state == OPEN  # eight items are one refusal, not a recovery


@pytest.mark.parametrize("style", GET_STYLES)
def test_refused_requests_cost_the_same_skips_on_every_entry_point(style):
    d, router, puts = prepared()
    router.enable_breakers(SIM_BREAKER)
    primary = d.cluster.owners_of(puts[0].tag)[0]
    d.cluster.kill_shard(primary)
    get = make_get(puts[0])
    for _ in range(30):
        (response,) = dispatch(router, style, [get])
        assert response.found
    # 3 failures open the breaker; from then on every 7th request is the
    # half-open probe (it fails and re-opens it) after 6 refusals: 4 x 6.
    assert router.stats.circuit_skips == router._breaker(primary).skips == 24
    assert router.stats.get_timeouts == 30
    assert router.stats.failovers == 30
