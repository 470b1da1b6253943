"""Every ``execute*`` entry point is one pipeline: same answers, same counters.

One scenario table.  Each row is run once per entry on a fresh,
identically prepared deployment — ``execute_result(x)`` per input,
``execute_many_results([x])`` per input, ``execute_many_results(xs)`` once
— and once more through plain sequential ``execute``.  A row passes when
every entry yields, per input, the value / ``source`` / ``hit`` /
``l1_hit`` / ``degraded`` (or the exception type) the row names, and moves
:class:`RuntimeStats` (``batches`` aside) and the L1's counters exactly as
sequential ``execute`` does.

A batch that raises gives no per-item outcome; it is read as every input
raising, which is what the same inputs do one by one.
"""

from dataclasses import asdict, dataclass, field
from typing import Any, Callable

import pytest

import repro
from repro import RuntimeConfig
from repro.core.serialization import AnyParser, default_registry
from repro.core.tag import derive_tag
from repro.errors import NoLiveOwnerError
from repro.security import HostAdversary
from repro.store.resultstore import StoreConfig
from tests.conftest import DOUBLE_DESC, arena_name, double_bytes, find_nodes, find_spans, make_libs

DISTINCT = (b"alpha", b"beta", b"gamma", b"delta")
REPEATS = (b"alpha", b"beta", b"gamma", b"alpha", b"delta", b"beta")

ENTRIES = ("execute_result", "many_of_one", "many")
L1_COUNTERS = ("hits", "misses", "insertions", "evictions")


def facts(result):
    return (result.value, result.source, result.hit, result.l1_hit, result.degraded)


def drive(runtime, entry, inputs):
    """Per-input outcome of ``inputs`` through one entry: the result's
    facts, or the name of the exception it raised."""
    def attempt(call):
        try:
            return call()
        except Exception as exc:  # the row names the type it expects
            return type(exc).__name__

    if entry == "execute":
        return [attempt(lambda: runtime.execute(DOUBLE_DESC, x)) for x in inputs]
    if entry == "execute_result":
        return [attempt(lambda: facts(runtime.execute_result(DOUBLE_DESC, x))) for x in inputs]
    if entry == "many_of_one":
        return [
            attempt(lambda: facts(runtime.execute_many_results(DOUBLE_DESC, [x])[0]))
            for x in inputs
        ]
    assert entry == "many"
    out = attempt(lambda: [facts(r) for r in runtime.execute_many_results(DOUBLE_DESC, inputs)])
    return out if isinstance(out, list) else [out] * len(inputs)


# -- preparing a deployment ------------------------------------------------------

def warm_from_sibling(session, inputs):
    sibling = session.sibling("producer")
    for x in inputs:
        sibling.execute(DOUBLE_DESC, x)
    sibling.flush_puts()


def warm_itself(session, inputs):
    for x in inputs:
        session.execute(DOUBLE_DESC, x)
    session.flush_puts()


def fill_l1(session, inputs):
    for x in inputs:
        session.execute(DOUBLE_DESC, x)


def kill_every_shard(session, inputs):
    for shard_id in list(session.deployment.cluster.shard_ids):
        session.kill_shard(shard_id)


def poison_every_blob(session, inputs):
    """A sibling stores every result, then the host flips bits in each
    blob; the store's own digest check is off, so Fig. 3 must catch it."""
    warm_from_sibling(session, inputs)
    identity = session.runtime.libraries.function_identity(DOUBLE_DESC)
    store = session.store
    for x in inputs:
        tag = derive_tag(identity, AnyParser(default_registry()).encode(x))
        HostAdversary(store.platform.host).flip(arena_name(store, tag))


@dataclass(frozen=True)
class Row:
    name: str
    # Per input ``(source, degraded)``, one pair for all inputs alike, or
    # the exception type every input raises.
    expect: Any
    config: dict = field(default_factory=dict)    # RuntimeConfig fields
    deploy: dict = field(default_factory=dict)    # repro.connect arguments
    prepare: Callable = lambda session, inputs: None
    inputs: tuple = DISTINCT
    stats: dict = field(default_factory=dict)     # RuntimeStats deltas the row pins
    l1: dict = field(default_factory=dict)        # L1 counter deltas the row pins
    l1_counters: tuple = L1_COUNTERS              # the L1 counters compared


DEAD_CLUSTER = dict(shards=2, replication_factor=1)
COMPUTED, STORE, L1, DEGRADED = ("computed", False), ("store", False), ("l1", False), ("computed", True)

ROWS = [
    Row("cold", COMPUTED, stats=dict(misses=4, puts_sent=0)),
    Row("warm_sibling", STORE, prepare=warm_from_sibling, stats=dict(hits=4)),
    Row("warm_itself", STORE, prepare=warm_itself, stats=dict(hits=4, misses=0)),
    Row("l1_cold", COMPUTED, config=dict(l1_cache_entries=8),
        l1=dict(hits=0, misses=4, insertions=4)),
    Row("l1_warm_sibling", STORE, config=dict(l1_cache_entries=8), prepare=warm_from_sibling,
        l1=dict(hits=0, misses=4, insertions=4)),
    Row("l1_full", L1, config=dict(l1_cache_entries=8), prepare=fill_l1,
        stats=dict(l1_hits=4), l1=dict(hits=4, misses=0)),
    Row("sync_put", COMPUTED, config=dict(async_put=False),
        stats=dict(puts_sent=4, puts_accepted=4)),
    Row("dedup_off", COMPUTED, config=dict(dedup_enabled=False), stats=dict(misses=4)),
    Row("owners_dead_degrade", DEGRADED, deploy=DEAD_CLUSTER, prepare=kill_every_shard,
        config=dict(async_put=False, degrade_on_store_failure=True),
        stats=dict(degraded=4, puts_sent=4, puts_failed=4, puts_rejected=0)),
    Row("owners_dead_failfast", NoLiveOwnerError, deploy=DEAD_CLUSTER, prepare=kill_every_shard,
        config=dict(async_put=False), stats={}),
    Row("owners_dead_async_degrade", DEGRADED, deploy=DEAD_CLUSTER, prepare=kill_every_shard,
        config=dict(degrade_on_store_failure=True), stats=dict(degraded=4, puts_sent=0)),
    Row("failed_verification", COMPUTED, prepare=poison_every_blob,
        deploy=dict(store_config=StoreConfig(verify_blob_digest=False)),
        stats=dict(verification_failures=4, hits=0, misses=4)),
    # Repeats inside one group.  Unflushed, a repeat is computed again;
    # with an L1 it is served from there.  A batch probes the L1 for every
    # input up front, so it makes more lookups than one-by-one calls do:
    # only the other three counters are comparable on that row.
    Row("repeats", COMPUTED, inputs=REPEATS, stats=dict(misses=6)),
    Row("repeats_l1", [COMPUTED, COMPUTED, COMPUTED, L1, COMPUTED, L1], inputs=REPEATS,
        config=dict(l1_cache_entries=8), stats=dict(l1_hits=2, misses=4),
        l1=dict(hits=2, insertions=4), l1_counters=("hits", "insertions", "evictions")),
]


def run(row, entry):
    """One row through one entry: (outcomes, RuntimeStats delta, L1 delta)."""
    session = repro.connect(
        libraries=make_libs(), seed=b"equiv-" + row.name.encode(),
        runtime_config=RuntimeConfig(**row.config), **row.deploy,
    )
    row.prepare(session, row.inputs)
    runtime = session.runtime

    def counters():
        stats = asdict(runtime.stats)
        del stats["records"], stats["batches"]
        l1 = asdict(runtime.l1_cache.stats) if runtime.l1_cache is not None else {}
        return stats, {name: l1[name] for name in row.l1_counters if l1}

    stats0, l1_0 = counters()
    outcomes = drive(runtime, entry, row.inputs)
    stats1, l1_1 = counters()
    return (
        outcomes,
        {key: stats1[key] - stats0[key] for key in stats1},
        {key: l1_1[key] - l1_0[key] for key in l1_1},
    )


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_entries_agree(row):
    values, stats, l1 = run(row, "execute")
    if isinstance(row.expect, type):
        expected = [row.expect.__name__] * len(row.inputs)
        assert values == expected
    else:
        pairs = row.expect if isinstance(row.expect, list) else [row.expect] * len(row.inputs)
        expected = [
            (double_bytes(x), source, source != "computed", source == "l1", degraded)
            for x, (source, degraded) in zip(row.inputs, pairs)
        ]
        assert values == [double_bytes(x) for x in row.inputs]
    for key, value in row.stats.items():
        assert stats[key] == value, f"sequential execute: {key}"
    for key, value in row.l1.items():
        assert l1[key] == value, f"sequential execute: L1 {key}"

    for entry in ENTRIES:
        got, got_stats, got_l1 = run(row, entry)
        assert got == expected, entry
        assert got_stats == stats, entry
        assert got_l1 == l1, entry


def test_empty_batch():
    session = repro.connect(libraries=make_libs(), seed=b"equiv-empty")
    assert session.runtime.execute_many(DOUBLE_DESC, []) == []
    assert session.runtime.execute_many_results(DOUBLE_DESC, []) == []
    assert session.runtime.stats.calls == session.runtime.stats.batches == 0


def boundary_names(session):
    """(ECALL, OCALLs, wire messages) of the session's last request."""
    trace = session.last_trace()
    app = session.runtime.enclave.name
    return (
        [s.attrs["op"] for s in find_spans(trace, "sgx.ecall") if s.attrs["enclave"] == app],
        [s.attrs["op"] for s in find_spans(trace, "sgx.ocall")],
        [s.attrs["message"] for s in find_spans(trace, "rpc.call")],
    )


def test_a_lone_call_crosses_as_plain_get_and_put():
    """A lone call is a group of one: ``execute(x)`` and
    ``execute_many([x])`` cross under the same ECALL and OCALL names, and
    on the wire both are one plain GET and one plain PUT per owner shard
    (a miss falls through to the next owner), never a BATCH of one — on
    the app machine's one shard as on shard machines."""
    for shards, owners in ((0, 1), (1, 1), (3, 2)):
        session = repro.connect(
            libraries=make_libs(), seed=b"equiv-wire", shards=shards,
            runtime_config=RuntimeConfig(async_put=False),
        )
        crossing = (
            ["dedup_execute"], ["get_request", "put_request"],
            ["GetRequest"] * owners + ["PutRequest"] * owners,
        )
        session.execute(DOUBLE_DESC, b"lone")
        assert boundary_names(session) == crossing, shards
        session.execute_many(DOUBLE_DESC, [b"one"])
        assert boundary_names(session) == crossing, shards


def test_both_entries_trace_one_span_shape():
    """Root → ``runtime.item[index]`` → ``runtime.tag`` (+ ``runtime.l1_lookup``),
    then ``runtime.verify`` / ``runtime.compute``; each item span says
    where its value came from."""
    def shape(session):
        (root,) = session.tracer.tree()
        items = find_nodes(root, "runtime.item")
        return (
            [node.span.attrs["index"] for node in items],
            [[child.span.name for child in node.children] for node in items],
            [node.span.attrs["source"] for node in items],
            bool(find_nodes(root, "runtime.verify")), bool(find_nodes(root, "runtime.compute")),
        )

    session = repro.connect(
        libraries=make_libs(), seed=b"equiv-spans", runtime_config=RuntimeConfig(l1_cache_entries=4),
    )
    warm_from_sibling(session, [b"stored"])
    children = ["runtime.tag", "runtime.l1_lookup"]

    session.execute(DOUBLE_DESC, b"stored")
    assert shape(session) == ([0], [children], ["store"], True, False)
    assert session.tracer.tree()[0].span.name == "runtime.execute"

    session.execute_many(DOUBLE_DESC, [b"stored", b"fresh"])
    assert shape(session) == ([0, 1], [children] * 2, ["l1", "computed"], False, True)
    assert session.tracer.tree()[0].span.name == "runtime.execute"
    assert session.phase_breakdown()["runtime.tag"]["count"] == 4  # sibling's one included
