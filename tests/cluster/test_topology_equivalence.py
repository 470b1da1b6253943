"""Every way to change topology is one path: same ring, same hand-off,
same marks, same refusal.

One scenario table, each row run once per *route* on an identically
seeded and filled cluster:

* ``sugar`` — the documented one-call spelling (``Session.add_shard`` /
  ``remove_shard`` / ``rebalance(weights)``);
* ``apply`` — ``Session.apply_topology`` with the same change as a plan;
* ``stepped`` — ``cluster.begin_plan`` stepped by hand (``step()`` until
  drained, ``finish()``; ``abort_plan`` on failure — what
  ``apply_topology`` does, spelled out).

A row passes when every route leaves the same membership, weights and
router clients, the same placement with ``holders_of == owners_of`` for
every tag, the same report counters, the same ``MIGRATE_*`` mark
sequence ``(kind, range, role)`` on every participant, and — for a row
that must fail — the same error class, ``code`` and message; and all of
it matches what the row says.

Faults are injected at a hand-off mark (a spy on
``ResultStore.note_migrate``), so they land at the same point of the
protocol whichever route is driving.
"""

import dataclasses
from dataclasses import dataclass

import pytest

from repro import TopologyPlan, connect
from repro.durable.wal import (
    MIGRATE_DEST,
    REC_MIGRATE_BEGIN,
    REC_MIGRATE_COMMIT,
    REC_MIGRATE_END,
)
from repro.errors import (
    MigrationError,
    MigrationIngestError,
    MigrationInProgressError,
    MigrationStateError,
    SpeedError,
)
from repro.store.resultstore import ResultStore, StoreConfig

from tests.cluster.conftest import make_get, make_put, pending_shards

ROUTES = ("sugar", "apply", "stepped")
N_PUTS = 12


# -- faults, fired from a hand-off mark ---------------------------------------
def kill_joiner_at_begin():
    """The joiner dies as the window opens: every range blocks."""
    def hook(cluster, shard, kind, role):
        if kind == REC_MIGRATE_BEGIN and shard not in cluster.ring:
            cluster.kill_shard(shard)
    return hook


def fill_joiner_after_a_commit():
    """Once a range has committed the joiner runs out of room: the next
    shipped batch is refused and the window must be backed out."""
    def hook(cluster, shard, kind, role):
        if kind == REC_MIGRATE_COMMIT and role == MIGRATE_DEST:
            store = cluster.shards[shard].store
            store.config = dataclasses.replace(store.config, capacity_entries=len(store))
    return hook


def power_fail_mid_range():
    """Between a destination's durable commit mark and its sources'
    discard, the destination and an incumbent lose power (once)."""
    fired = []

    def hook(cluster, shard, kind, role):
        if kind == REC_MIGRATE_COMMIT and role == MIGRATE_DEST and not fired:
            fired.append(shard)
            cluster.power_fail_shard(shard)
            cluster.power_fail_shard("shard-1")
    return hook


# -- preparation beyond the fill ----------------------------------------------
def drain_shard_0(session):
    session.remove_shard("shard-0")


def open_a_window(session):
    return session.cluster.begin_plan(TopologyPlan().join("early"))


@dataclass(frozen=True)
class Row:
    name: str
    plan: TopologyPlan
    sugar: object = None       # the one-call spelling (None: a plan-only row)
    relabel: tuple = ()        # the sugar report's (action, shard_id)
    label: str = ""            # ... and apply_topology's shard_id: the named plan's label
    batch_entries: int = 32
    shards: int = 3
    durable: bool = False
    pipeline: bool = False
    prepare: object = None     # runs after the fill; may return a window to settle
    fault: object = None       # a hook factory from above
    error: tuple = ()          # (class, code) every route must raise
    commits: bool = True       # a failing row: did a range commit before it failed?
    members: tuple = ()        # final ring membership
    weights: dict = dataclasses.field(default_factory=dict)  # non-1.0 weights


SCENARIOS = [
    Row("join_auto_named", TopologyPlan().join(),
        lambda s: s.add_shard(), ("add_shard", "shard-3"), "+shard-3",
        members=("shard-0", "shard-1", "shard-2", "shard-3")),
    Row("join_named_weighted_pipelined", TopologyPlan().join("big", 2.0),
        lambda s: s.add_shard("big", 4, 2.0), ("add_shard", "big"), "+big",
        batch_entries=4, pipeline=True,
        members=("big", "shard-0", "shard-1", "shard-2"), weights={"big": 2.0}),
    Row("drain", TopologyPlan().leave("shard-1"),
        lambda s: s.remove_shard("shard-1", 8), ("remove_shard", "shard-1"), "-shard-1",
        batch_entries=8, shards=4,
        members=("shard-0", "shard-2", "shard-3")),
    Row("reweight", TopologyPlan().reweight("shard-1", 2.0),
        lambda s: s.rebalance({"shard-1": 2.0, "shard-2": 1.0}),
        ("rebalance", "~shard-1"), "~shard-1", shards=4,
        members=("shard-0", "shard-1", "shard-2", "shard-3"), weights={"shard-1": 2.0}),
    Row("plan_of_four_changes",
        TopologyPlan().join(weight=2.0).join("cache-b").leave("shard-0")
        .reweight("shard-1", 0.5), shards=4, batch_entries=5,
        members=("cache-b", "shard-1", "shard-2", "shard-3", "shard-4"),
        weights={"shard-4": 2.0, "shard-1": 0.5}),
    # -- refusals: nothing may change ----------------------------------------
    Row("refused_unknown_leaver", TopologyPlan().leave("ghost"),
        lambda s: s.remove_shard("ghost"), error=(SpeedError, "speed_error"),
        members=("shard-0", "shard-1", "shard-2")),
    Row("refused_unknown_reweight_target", TopologyPlan().reweight("ghost", 2.0),
        error=(SpeedError, "speed_error"),
        members=("shard-0", "shard-1", "shard-2")),
    Row("refused_joiner_is_a_member", TopologyPlan().join("shard-1"),
        lambda s: s.add_shard("shard-1"), error=(SpeedError, "speed_error"),
        members=("shard-0", "shard-1", "shard-2")),
    Row("refused_joiner_id_used_up", TopologyPlan().join("shard-0"),
        lambda s: s.add_shard("shard-0"), prepare=drain_shard_0,
        error=(MigrationError, "migration_error"),
        members=("shard-1", "shard-2")),
    Row("refused_last_shard", TopologyPlan().leave("shard-0"),
        lambda s: s.remove_shard("shard-0"), shards=1,
        error=(MigrationStateError, "migration_state"), members=("shard-0",)),
    Row("refused_window_already_open", TopologyPlan().join("late"),
        lambda s: s.add_shard("late"), prepare=open_a_window,
        error=(MigrationInProgressError, "migration_in_progress"),
        members=("early", "shard-0", "shard-1", "shard-2")),
    # -- faults inside the window ---------------------------------------------
    Row("abort_after_a_committed_range", TopologyPlan().join(),
        lambda s: s.add_shard(batch_entries=4), batch_entries=4,
        fault=fill_joiner_after_a_commit,
        error=(MigrationIngestError, "migration_ingest"),
        members=("shard-0", "shard-1", "shard-2")),
    Row("dead_joiner_blocks", TopologyPlan().join(),
        lambda s: s.add_shard(), fault=kill_joiner_at_begin,
        error=(MigrationError, "migration_error"), commits=False,
        members=("shard-0", "shard-1", "shard-2")),
    Row("durable_power_failure_mid_range", TopologyPlan().join(),
        lambda s: s.add_shard(), ("add_shard", "shard-3"), "+shard-3", durable=True,
        fault=power_fail_mid_range,
        members=("shard-0", "shard-1", "shard-2", "shard-3")),
]


COUNTERS = ("ranges_moved", "moved", "bytes_moved", "duplicates", "dropped",
            "transfers", "batches")


def stepped(session, row):
    """``cluster.begin_plan`` driven by hand, as ``apply_topology`` drives it."""
    cluster = session.cluster
    migrator = cluster.begin_plan(row.plan, row.batch_entries, session.runtime.engine)
    try:
        while migrator.pending_ranges():
            if not migrator.step():
                migrator.run()  # every pending range is blocked: run() says so
        report = migrator.finish()
    except Exception:
        if not migrator.finished:
            cluster.abort_plan(migrator)
        raise
    return {**{name: getattr(report, name) for name in COUNTERS},
            "stalls": migrator.stalled_batches}


def via_session(change, session):
    report = change(session)
    counters = {
        name: getattr(report, "entries_moved" if name == "moved" else name)
        for name in COUNTERS
    }
    return dict(counters, stalls=report.foreground_stalls), report


def run_route(row, route, monkeypatch):
    """Prepare the row's cluster, change its topology by ``route``, and
    return everything a route could leave different."""
    # Few vnodes and few entries: every hand-off batch pays a store-to-store
    # attestation handshake, which is where this table's wall time goes.
    session = connect(
        shards=row.shards, replication_factor=2, seed=b"topo-eq/" + row.name.encode(),
        tracing=False, vnodes=4, store_config=StoreConfig(durable=row.durable),
    )
    if row.pipeline:
        session.enable_pipeline(depth=4)
    cluster, router = session.cluster, session.runtime.client
    puts = [make_put(i, prefix=b"topo-eq", app_id="app") for i in range(N_PUTS)]
    for put in puts:
        assert router.call(put).accepted
    marks: list[tuple] = []
    hook = row.fault() if row.fault else None
    original = ResultStore.note_migrate

    def spy(store, kind, migration_id, range_lo=0, range_hi=0, peer="", role=0):
        original(store, kind, migration_id, range_lo, range_hi, peer=peer, role=role)
        shard = store.address.partition("@")[2]
        marks.append((shard, kind, (range_lo, range_hi), role))
        if hook:
            hook(cluster, shard, kind, role)

    monkeypatch.setattr(ResultStore, "note_migrate", spy)
    early = row.prepare(session) if row.prepare else None
    before = (sorted(cluster.shards), router.shard_ids, pending_shards(cluster.ring))

    counters = report = error = None
    try:
        if route == "stepped":
            counters = stepped(session, row)
        elif route == "apply":
            counters, report = via_session(
                lambda s: s.apply_topology(row.plan, row.batch_entries), session
            )
        else:
            counters, report = via_session(row.sugar, session)
    except SpeedError as exc:
        error = (type(exc), exc.code, str(exc))
        # A refused or backed-out change leaves the cluster as it found it.
        assert (sorted(cluster.shards), router.shard_ids,
                pending_shards(cluster.ring)) == before
    if early is not None:
        early.run()
    monkeypatch.setattr(ResultStore, "note_migrate", original)

    assert not cluster.ring.in_transition
    for put in puts:
        assert cluster.holders_of(put.tag) == sorted(cluster.owners_of(put.tag))
        response = router.call(make_get(put))
        assert response.found and response.sealed_result == put.sealed_result
    per_shard: dict[str, list] = {}
    for shard, *mark in marks:
        per_shard.setdefault(shard, []).append(tuple(mark))
    return dict(
        members=cluster.ring.shards,
        machines=tuple(sorted(cluster.shards)),
        clients=router.shard_ids,
        weights={s: cluster.ring.weight_of(s) for s in cluster.ring.shards},
        placement=[tuple(cluster.holders_of(put.tag)) for put in puts],
        counters=counters, marks=per_shard, error=error,
    ), report


@pytest.mark.parametrize("row", SCENARIOS, ids=lambda row: row.name)
def test_every_route_changes_topology_the_same_way(row, monkeypatch):
    routes = [r for r in ROUTES if r != "sugar" or row.sugar]
    outcomes, reports = {}, {}
    for route in routes:
        outcomes[route], reports[route] = run_route(row, route, monkeypatch)

    # What the row says, against the first route ...
    first = outcomes[routes[0]]
    assert first["members"] == first["machines"] == row.members
    assert first["clients"] == row.members
    assert first["weights"] == {s: row.weights.get(s, 1.0) for s in row.members}
    if row.error:
        cls, code = row.error
        assert first["error"][0] is cls and first["error"][1] == code
        assert first["counters"] is None
        if row.fault:
            assert row.commits == any(
                kind == REC_MIGRATE_COMMIT
                for sequence in first["marks"].values() for kind, *_ in sequence
            )
    else:
        assert first["error"] is None
        assert first["counters"]["ranges_moved"] > 0
        assert first["counters"]["moved"] > 0
        assert first["counters"]["stalls"] == (
            0 if row.pipeline else first["counters"]["batches"]
        )
        # Every participant's marks are BEGIN, its commits, END.
        for shard, sequence in first["marks"].items():
            kinds = [kind for kind, _range, _role in sequence]
            assert kinds[0] == REC_MIGRATE_BEGIN and kinds[-1] == REC_MIGRATE_END, shard
            assert set(kinds[1:-1]) <= {REC_MIGRATE_COMMIT}, shard
    # ... and every other route against the first.
    for route in routes[1:]:
        for aspect, value in first.items():
            assert outcomes[route][aspect] == value, (route, aspect)

    # The sugar is apply_topology's report under another label.
    if row.sugar and not row.error:
        action, shard_id = row.relabel
        assert (reports["sugar"].action, reports["sugar"].shard_id) == (action, shard_id)
        assert reports["apply"].action == "apply_topology"
        assert reports["apply"].shard_id == row.label
        assert reports["sugar"] == dataclasses.replace(
            reports["apply"], action=action, shard_id=shard_id
        )


def test_marks_of_a_lone_join_name_the_plan(monkeypatch):
    """The one stated movement: a window's ``migration_id`` / ``peer``
    text has one format whatever the plan holds."""
    seen = []
    original = ResultStore.note_migrate

    def spy(store, kind, migration_id, *args, peer="", **kwargs):
        seen.append((migration_id, peer))
        original(store, kind, migration_id, *args, peer=peer, **kwargs)

    monkeypatch.setattr(ResultStore, "note_migrate", spy)
    session = connect(shards=3, seed=b"topo-eq/marks", tracing=False)
    session.add_shard()
    session.apply_topology(TopologyPlan().leave("shard-0").reweight("shard-1", 2.0))
    assert set(seen) == {
        ("plan/+shard-3/1", "+shard-3"),
        ("plan/-shard-0~shard-1/2", "-shard-0~shard-1"),
    }
