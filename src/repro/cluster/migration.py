"""Tag-range migration between shards over attested channels.

When the ring changes, ownership of contiguous tag ranges moves between
shards.  The ciphertexts follow through the same shipper the
master-sync path uses (:func:`repro.store.sync.transfer_entries`, over a
mutually attested store-to-store channel): the source collects the
affected ``(tag, r, [k], [res])`` tuples inside its enclave, seals them
into one channel payload, and the destination ingests them inside its
own enclave.  Nothing decryptable ever exists outside an enclave —
migration moves *protected* results, so a compromised wire or host
learns exactly what it learns from normal PUT traffic.

The online path behind ``Session.apply_topology()`` (and its
``add_shard()``/``remove_shard()``/``rebalance(weights)`` sugar) is
:class:`RangeMigrator`.  The pending ring is computed up front
(:meth:`~repro.cluster.ring.ShardRing.begin_plan`, one
:class:`~repro.cluster.ring.TopologyPlan` whatever the change),
and entries move range by range in bounded batches while a
*dual-ownership window* keeps every tag readable from its old owners
(with GET failover to the new ones) and writable to its new owners.
Each shard logs sealed ``MIGRATE_BEGIN`` / ``MIGRATE_RANGE_COMMIT`` /
``MIGRATE_END`` marks into its durable WAL, and every batch is durably
ingested (commit-before-ack) at the destination *before* the source logs
its commit mark and discards — so a power failure on either side
mid-range recovers to a consistent ownership map with no loss and no
resurrection, and re-running a range is idempotent (ingestion dedupes on
tag).  With a :class:`~repro.engine.PipelineEngine` attached, each batch
transfer is accounted as a background lane overlapping foreground
GET/PUT rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .ring import MigrationRange, TopologyPlan, tag_point
from ..durable.wal import (
    MIGRATE_DEST,
    MIGRATE_SOURCE,
    REC_MIGRATE_BEGIN,
    REC_MIGRATE_COMMIT,
    REC_MIGRATE_END,
)
from ..errors import MigrationError, MigrationStateError
from ..report import ReportMixin
from ..store.resultstore import ResultStore
from ..store.sync import transfer_entries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import StoreCluster


@dataclass(frozen=True)
class MigrationReport(ReportMixin):
    """Outcome of one resharding round."""

    moved: int = 0       # entries newly ingested at their new owners
    duplicates: int = 0  # offered entries the destination already held
    dropped: int = 0     # entries removed from sources that lost ownership
    transfers: int = 0   # attested channel payloads shipped
    bytes_moved: int = 0 # ciphertext bytes that crossed machines
    ranges_moved: int = 0  # ring ranges whose owner set changed
    batches: int = 0       # bounded streaming batches shipped


def _gaining(rng: MigrationRange) -> list[str]:
    """The shards that take ``rng`` on without having held it."""
    return [d for d in rng.dests if d not in rng.sources]


def _sweep_stale(cluster: "StoreCluster", shard_id: str) -> int:
    """Drop every copy ``shard_id`` holds of a tag the ring says it does
    not own; returns the number dropped."""
    factor = cluster.config.replication_factor
    store = cluster.shards[shard_id].store
    stale = store.tags_matching(
        lambda tag: shard_id not in cluster.ring.owners(tag, factor)
    )
    return store.discard_tags(stale)


class RangeMigrator:
    """Streams the topology transition :meth:`StoreCluster.begin_plan`
    opened on the ring — whatever mix of joins, leaves and reweights its
    :class:`~repro.cluster.ring.TopologyPlan` holds — range by range.

    Lifecycle: construction takes over the open dual-ownership window
    (and logs ``MIGRATE_BEGIN`` on every participant), :meth:`step` hands
    off one pending range (returns False when every pending range is
    blocked on a dead shard — retry after healing), :meth:`finish` closes
    the window once all ranges are committed.  :meth:`run` drives the
    whole sequence.  :meth:`abort` restores the previous ownership map
    (:meth:`StoreCluster.abort_plan` also reclaims the joiner machines).

    A lone join or drain is a one-change plan: every range hand-off
    (commit-before-discard, per-participant ``REC_MIGRATE_*`` marks) is
    generic over ranges whose sources/dests span several changed shards.
    """

    def __init__(
        self,
        cluster: "StoreCluster",
        plan: TopologyPlan,
        batch_entries: int = 32,
        engine=None,
    ):
        self.cluster = cluster
        self.plan = plan
        self.joiners = frozenset(sid for sid, _ in plan.joins)
        self.leavers = frozenset(plan.leaves)
        #: Entries shipped per attested batch payload.  Bounds the work (and
        #: the foreground stall, when no engine overlaps it) of one step.
        self.batch_entries = batch_entries
        self.engine = engine
        self.label = plan.label()
        self.migration_id = f"plan/{self.label}/{cluster.next_migration_seq()}"
        self.ranges: tuple[MigrationRange, ...] = cluster.ring.pending_ranges()
        self.finished = False
        self._done: set[int] = set()
        self.participants = tuple(sorted(
            {s for rng in self.ranges for s in (*rng.sources, *rng.dests)}
        ))
        # Counters folded into the final MigrationReport.
        self.moved = 0
        self.duplicates = 0
        self.dropped = 0
        self.transfers = 0
        self.bytes_moved = 0
        self.batches = 0
        #: Batches shipped without an engine background lane — each one
        #: is a foreground stall (the caller blocked for the transfer).
        self.stalled_batches = 0
        gaining = {d for rng in self.ranges for d in _gaining(rng)}
        for sid in self.participants:
            role = MIGRATE_DEST if sid in gaining else MIGRATE_SOURCE
            self._store(sid).note_migrate(
                REC_MIGRATE_BEGIN, self.migration_id, peer=self.label, role=role,
            )

    # -- lifecycle ------------------------------------------------------------
    def pending_ranges(self) -> tuple[MigrationRange, ...]:
        return tuple(r for r in self.ranges if r.index not in self._done)

    def step(self) -> bool:
        """Hand off the first movable pending range.

        Returns True when a range was committed; False when every
        pending range is blocked (a destination, or every source, of
        each is unreachable) — the window stays open and the step can be
        retried after the cluster heals.
        """
        if self.finished:
            raise MigrationStateError("migration is not streaming")
        return any(self._step_one(rng) for rng in self.pending_ranges())

    def _step_one(self, rng: MigrationRange) -> bool:
        """Hand off one specific pending range (False when blocked)."""
        if self.engine is not None:
            # Overlap accounting: the whole hand-off (collect, ship,
            # marks, discard) charges the shard clocks normally, and
            # the engine folds the cost into the next foreground
            # round's makespan as one extra (background) lane.
            with self.engine.background():
                return self._try_range(rng)
        return self._try_range(rng)

    def overlap_steps(self, rounds_left: int = 1) -> int:
        """Advance the hand-off between two foreground rounds.

        Paces the pending ranges across the caller's ``rounds_left``
        remaining foreground rounds so the window drains steadily
        instead of piling up at the end (a pile-up cannot overlap the
        foreground: background work is bounded below by itself, so a
        front-loaded hand-off lands on the critical path in full).  With
        an engine attached, one gap commits at most one range per
        distinct live gaining shard among the pending ranges (at least
        one): transfers to distinct machines overlap each other and the
        foreground round, while a second range to the same shard would
        queue behind the first on its clock.  Demand above the cap is
        deferred (``finish`` drains it serially), keeping the foreground
        bound intact.  Returns the number of ranges committed; stops
        early when every pending range is blocked on a dead shard.
        """
        pending_ranges = self.pending_ranges()
        pending = len(pending_ranges)
        if not pending:
            return 0
        budget = max(1, -(-pending // max(1, rounds_left)))
        if self.engine is not None:
            gaining = {
                d for rng in pending_ranges for d in _gaining(rng)
                if self.cluster.shard_alive(d)
            }
            budget = min(budget, max(1, len(gaining)))
        # Spread this gap's picks across distinct gaining shards: the
        # per-gap intrusion then lands on several (mostly idle) joiner
        # clocks instead of piling onto one, so the engine can fold it
        # under the foreground round's busiest shard.
        committed = 0
        used_dests: set[str] = set()
        while committed < budget:
            pending_now = self.pending_ranges()
            if not pending_now:
                break
            ordered = sorted(
                pending_now,
                key=lambda rng: (len(used_dests.intersection(_gaining(rng))), rng.index),
            )
            picked = None
            for rng in ordered:
                if self._step_one(rng):
                    picked = rng
                    break
            if picked is None:
                break
            used_dests.update(_gaining(picked))
            committed += 1
        return committed

    def run(self) -> MigrationReport:
        """Stream every range and close the window."""
        while self.pending_ranges():
            if not self.step():
                blocked = len(self.pending_ranges())
                raise MigrationError(
                    f"migration {self.migration_id} blocked: no live "
                    f"source/destination for {blocked} pending range(s)"
                )
        return self.finish()

    def finish(self) -> MigrationReport:
        """Adopt the pending ring, sweep stale copies, log MIGRATE_END."""
        if self.finished:
            raise MigrationStateError("migration is not streaming")
        if self.pending_ranges():
            raise MigrationStateError(
                f"{len(self.pending_ranges())} range(s) still pending"
            )
        cluster = self.cluster
        cluster.ring.finish()
        # Stale sweep: any live shard that kept copies it no longer owns
        # (deferred discards from dead-at-commit sources, pre-existing
        # over-replication) drops them now, under the settled ring.
        for sid in sorted(cluster.shards):
            # A leaver goes dark with its state in place.
            if sid not in self.leavers and cluster.shard_alive(sid):
                self.dropped += _sweep_stale(cluster, sid)
        for sid in self.participants:
            if sid in cluster.shards and cluster.shard_alive(sid):
                self._store(sid).note_migrate(
                    REC_MIGRATE_END, self.migration_id, peer=self.label
                )
        self.finished = True
        for sid in sorted(self.leavers):
            cluster.despawn_shard(sid)
        return self.report()

    def abort(self) -> None:
        """Drop the pending ring and clean partially migrated copies.

        Ranges that already committed have had their source copies
        discarded, so their entries are first re-homed from the live
        destinations back to the old owners — only then is the pending
        ring dropped and every copy the restored ring disowns swept."""
        if self.finished:
            raise MigrationStateError("migration is not streaming")
        cluster = self.cluster
        for rng in self.ranges:
            if rng.index not in self._done:
                continue
            back_home = [s for s in rng.sources if s not in rng.dests]
            if not back_home:
                continue
            per_source = self._collect(rng, [
                d for d in rng.dests
                if d in cluster.shards and cluster.shard_alive(d)
            ])
            for sid in back_home:
                if not cluster.shard_alive(sid):
                    continue
                for src in sorted(per_source):
                    transfer_entries(
                        cluster.attestation, self._store(src), self._store(sid),
                        per_source[src],
                    )
        # finish() may have settled the ring before raising (e.g. the
        # stale sweep hit a fault after ring.finish()); abort() is then
        # cleanup-only, and calling abort_transition() on the settled
        # ring would raise and mask the original error.
        if cluster.ring.in_transition:
            cluster.ring.abort_transition()
        for sid in self.participants:
            if sid not in cluster.shards or not cluster.shard_alive(sid):
                continue
            if sid not in cluster.ring:
                continue  # an aborted joiner is despawned by the cluster
            self.dropped += _sweep_stale(cluster, sid)
            self._store(sid).note_migrate(
                REC_MIGRATE_END, self.migration_id, peer=self.label
            )
        self.finished = True

    def report(self) -> MigrationReport:
        return MigrationReport(
            moved=self.moved,
            duplicates=self.duplicates,
            dropped=self.dropped,
            transfers=self.transfers,
            bytes_moved=self.bytes_moved,
            ranges_moved=len(self.ranges),
            batches=self.batches,
        )

    # -- one range ------------------------------------------------------------
    def _try_range(self, rng: MigrationRange) -> bool:
        cluster = self.cluster
        new_dests = _gaining(rng)
        # A dead destination blocks the range: its commit mark (and the
        # entries themselves) must be durable there before the sources
        # may discard.
        if any(not cluster.shard_alive(d) for d in new_dests):
            return False
        if new_dests:
            live_sources = [s for s in rng.sources if cluster.shard_alive(s)]
            if not live_sources:
                return False
            per_source = self._collect(rng, live_sources)
            for dest in new_dests:
                self._ship_all(dest, per_source)
            for dest in new_dests:
                self._store(dest).note_migrate(
                    REC_MIGRATE_COMMIT, self.migration_id,
                    rng.lo, rng.hi, peer=self.label, role=MIGRATE_DEST,
                )
        # Sources that lose ownership of this range discard their copies
        # — strictly after the destinations' durable commit marks, so a
        # crash at any interleaving loses nothing.
        for sid in rng.sources:
            if sid in rng.dests:
                continue
            if not cluster.shard_alive(sid):
                continue  # swept at finish() if it comes back
            store = self._store(sid)
            store.note_migrate(
                REC_MIGRATE_COMMIT, self.migration_id,
                rng.lo, rng.hi, peer=self.label, role=MIGRATE_SOURCE,
            )
            stale = store.tags_matching(lambda tag: rng.contains(tag_point(tag)))
            self.dropped += store.discard_tags(stale)
        cluster.ring.commit_range(rng.index)
        self._done.add(rng.index)
        return True

    def _collect(self, rng: MigrationRange, holders) -> dict[str, list[tuple]]:
        """One range's entries, grouped by the holder that supplies each:
        collected once per holder (replicas may hold different subsets
        after past faults), the first copy of a tag wins."""
        collected: dict[bytes, tuple[str, tuple]] = {}
        for sid in holders:
            entries = self._store(sid).collect_entries(
                lambda entry: rng.contains(tag_point(entry.tag))
            )
            for item in entries:
                collected.setdefault(item[0], (sid, item))
        per_source: dict[str, list[tuple]] = {}
        for sid, item in collected.values():
            per_source.setdefault(sid, []).append(item)
        return per_source

    def _ship_all(self, dest: str, per_source: dict[str, list[tuple]]) -> None:
        """Send one range's entries to one destination in bounded
        batches (each batch is one attested source→dest payload)."""
        dest_store = self._store(dest)
        size = self.batch_entries
        for sid in sorted(per_source):
            items = per_source[sid]
            for start in range(0, len(items), size):
                if self.engine is None:
                    # No engine to overlap against: the batch runs on the
                    # foreground's critical path.
                    self.stalled_batches += 1
                moved, duplicates, payload = transfer_entries(
                    self.cluster.attestation, self._store(sid), dest_store,
                    items[start:start + size], enforce_capacity=True,
                )
                self.moved += moved
                self.duplicates += duplicates
                self.bytes_moved += payload
                self.transfers += 1
                self.batches += 1

    def _store(self, shard_id: str) -> ResultStore:
        return self.cluster.shards[shard_id].store


def rebalance(cluster: "StoreCluster") -> MigrationReport:
    """Anti-entropy pass under the settled ring: push every entry to the
    owners that miss it, then drop copies from shards that do not own
    them.  Safe to run any time (idempotent); repairs placement drift
    left by crashes, deferred discards, or replicas that were dead
    during a migration."""
    if cluster.ring.in_transition:
        raise MigrationStateError("cannot rebalance mid-migration")
    factor = cluster.config.replication_factor
    moved = duplicates = dropped = transfers = bytes_moved = 0
    for sid, node in sorted(cluster.shards.items()):
        if not cluster.shard_alive(sid):
            continue
        for dest_id in cluster.ring.shards:
            if dest_id == sid or not cluster.shard_alive(dest_id):
                continue
            dest = cluster.shards[dest_id]
            outgoing = node.store.collect_entries(
                lambda entry, d=dest_id: (
                    d in cluster.ring.owners(entry.tag, factor)
                    and not dest.store.contains(entry.tag)
                )
            )
            if not outgoing:
                continue
            m, d, b = transfer_entries(
                cluster.attestation, node.store, dest.store, outgoing
            )
            moved += m
            duplicates += d
            bytes_moved += b
            transfers += 1
        dropped += _sweep_stale(cluster, sid)
    return MigrationReport(
        moved=moved, duplicates=duplicates, dropped=dropped,
        transfers=transfers, bytes_moved=bytes_moved,
    )
