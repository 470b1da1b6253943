"""Crash recovery: checkpoint restore plus chain-verified log replay.

Recovery rebuilds a store's volatile state exclusively from the durable
artifacts a power failure leaves behind (the host's names for the store):

1. unseal the checkpoint (if any) and repopulate the dictionary, blob
   arena, quota usage, and eviction order from it;
2. walk the sealed segments in name order, verifying that each one unseals,
   that its embedded predecessor-chain value matches the running chain,
   and that its first sequence number is the one expected;
3. replay the records — re-inserting logged PUTs (their ciphertexts come
   from the durable blob area and are digest-checked first) and
   re-applying logged evictions/discards;
4. fold the recovered state into a fresh checkpoint, so the durable
   artifacts and enclave memory agree from a clean anchor.

Verification failures are classified, not fatal: an unsealable *final*
segment is a **torn tail** (indistinguishable from a crash mid-commit)
and is dropped; an unsealable or mis-chained earlier segment is a
**chain break** — committed history the host lost or tampered with —
which stops replay at the break.  Both are surfaced in the
:class:`RecoveryReport` and the ``durable.*`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checkpoint import (
    apply_image,
    checkpoint_counter_id,
    decode_checkpoint,
    take_checkpoint,
)
from .wal import (
    GENESIS_CHAIN,
    REC_PUT,
    REC_REMOVE,
    REC_TOUCH,
    chain_step,
    decode_segment,
)
from ..errors import RollbackError, SealingError, SerializationError, StoreError
from ..report import ReportMixin
from ..store.metadata import blob_digest


@dataclass(frozen=True)
class RecoveryReport(ReportMixin):
    """What one recovery found and rebuilt."""

    entries_restored: int      # entries repopulated from the checkpoint
    records_replayed: int      # log records applied after the checkpoint
    puts_replayed: int
    removes_replayed: int
    segments_replayed: int
    records_dropped: int       # records lost to torn tails / chain breaks
    torn_tail: bool
    chain_broken: bool
    blobs_missing: int         # PUT records whose ciphertext failed its digest
    checkpoint_seq: int
    touches_replayed: int = 0  # GET-recency marks re-applied
    migrate_marks_replayed: int = 0
    rollback_detected: bool = False


def recover_store(store) -> RecoveryReport:
    """Rebuild ``store`` from its durable log; returns the report."""
    if store.durable is None:
        raise StoreError("recovery requires a durable-mode store")
    log = store.durable
    clock = store.platform.clock
    # Replay must not re-log itself.
    with store.ecall("durable_recover"), store.unlogged():
        with store.tracer.span("durable.recover", clock=clock) as span:
            entries_restored = 0
            expected_seq = 1
            running = GENESIS_CHAIN
            checkpoint_seq = 0
            rollback_detected = False
            if log.host.get(log.checkpoint_name) is not None:
                seq, chain, counter, image = decode_checkpoint(log.unseal(log.checkpoint_name))
                # Whole-state rollback check: each checkpoint seals the
                # hardware monotonic-counter value it bumped to.  An
                # embedded value behind the hardware counter means the
                # host presented a stale (but individually authentic)
                # image + log pair.
                hardware = store.platform.monotonic_read(checkpoint_counter_id(store))
                if counter < hardware:
                    rollback_detected = True
                    log.rollback_detected += 1
                    span.mark("rollback_detected")
                    if store.config.strict_rollback:
                        raise RollbackError(
                            f"checkpoint counter {counter} behind hardware "
                            f"counter {hardware}: stale sealed state presented"
                        )
                entries_restored, _ = apply_image(store, image)
                expected_seq = seq + 1
                running = chain
                checkpoint_seq = seq

            puts = removes = touches = migrates = blobs_missing = segments_ok = 0
            torn_tail = chain_broken = False
            names = log.segment_names()
            stop_index = len(names)
            for index, name in enumerate(names):
                try:
                    prev_chain, first_seq, records = decode_segment(log.unseal(name))
                except (SealingError, SerializationError, StoreError):
                    torn_tail = index == len(names) - 1
                    chain_broken = not torn_tail
                    stop_index = index
                    break
                if prev_chain != running or first_seq != expected_seq:
                    chain_broken = True
                    stop_index = index
                    break
                # Chain verification is free: the unseal above already
                # authenticated the embedded prev_chain token.
                running = chain_step(log.host.get(name))
                for record in records:
                    if record.kind == REC_PUT:
                        blob = log.host.get(log.blob_name(record.blob_digest))
                        if blob is not None:
                            clock.charge_hash(len(blob))
                        if blob is None or blob_digest(blob) != record.blob_digest:
                            blobs_missing += 1
                        elif store.replay_insert(record, blob):
                            puts += 1
                    elif record.kind == REC_REMOVE:
                        removes += store.replay_remove(record)
                    elif record.kind == REC_TOUCH:
                        touches += store.replay_touch(record)
                    else:  # a MIGRATE_* mark (decode_segment admits no other kind)
                        store.replay_migrate(record)
                        migrates += 1
                expected_seq += len(records)
                segments_ok += 1

            # Reporting only: the count each dropped segment's name carries.
            records_dropped = sum(int(name.rpartition("+")[2]) for name in names[stop_index:])
            log.next_seq, log.chain = expected_seq, running  # logging resumes here
            log.recoveries += 1
            replayed = puts + removes + touches + migrates + blobs_missing
            log.records_replayed += replayed
            if torn_tail:
                log.torn_segments += 1
            if chain_broken:
                log.chain_breaks += 1
            report = RecoveryReport(
                entries_restored=entries_restored,
                records_replayed=replayed,
                puts_replayed=puts,
                removes_replayed=removes,
                segments_replayed=segments_ok,
                records_dropped=records_dropped,
                torn_tail=torn_tail,
                chain_broken=chain_broken,
                blobs_missing=blobs_missing,
                checkpoint_seq=checkpoint_seq,
                touches_replayed=touches,
                migrate_marks_replayed=migrates,
                rollback_detected=rollback_detected,
            )
            span.set("entries_restored", entries_restored)
            span.set("records_replayed", report.records_replayed)
            # Fold everything just rebuilt into a fresh anchor: the torn or
            # broken artifacts are discarded and logging resumes cleanly.
            take_checkpoint(store)
            # The fold dropped any MIGRATE_* marks for a still-open
            # hand-off; re-log them so a second crash before MIGRATE_END
            # still recovers the migration's progress.
            store.relog_open_migrations()
    store.stats.recoveries += 1
    store.stats.restored_entries += entries_restored + puts
    return report
