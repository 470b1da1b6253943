"""Store images: the sealed whole-store state, with or without a log anchor.

An *image* is the plaintext of a store's whole state — every entry with
its ciphertext, contributor, hit count and insertion/recency sequence
numbers, so a restored store's eviction policies keep picking the same
victims.  Sealed bare under MRSIGNER it is a **snapshot**
(:mod:`repro.store.persistence`: a graceful restart, §II-D); sealed
together with the log position it folds in — the last covered WAL
sequence number and the chain head at that point — it is a
**checkpoint**.  Binding ``(seq, chain)`` *inside* the sealed payload
means the host cannot pair an old checkpoint with an unrelated log tail;
recovery trusts only the embedded anchor.

Rolling the *pair* back together — an old checkpoint plus its whole log
tail, each individually authentic — is the classic enclave rollback
attack.  Every checkpoint therefore bumps the platform's hardware
monotonic counter and seals the new value inside the image; recovery
compares the embedded value against the hardware counter and flags any
shortfall as a whole-state rollback (``durable.rollback_detected``,
hard :class:`~repro.errors.RollbackError` under
``StoreConfig(strict_rollback=True)``).

After sealing, the covered segments and their blob-area copies are
dropped: checkpointing doubles as log compaction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .wal import read_fields, write_fields
from ..errors import StoreError
from ..net.framing import FieldReader, FieldWriter
from ..sgx.sealing import SealedBlob, SealPolicy

IMAGE_VERSION = 2
#: One image entry: the keywords of ``ResultStore.restore_entry``.
IMAGE_ENTRY_FIELDS = (
    ("tag", "blob"), ("challenge", "blob"), ("wrapped_key", "blob"),
    ("sealed_result", "blob"), ("app_id", "text"), ("hits", "u64"),
    ("insert_seq", "u64"), ("last_access_seq", "u64"),
)
CHECKPOINT_VERSION = 2


def encode_image(store) -> bytes:
    """``store``'s whole state as one plaintext (call inside its enclave)."""
    stored = list(store.stored())
    writer = FieldWriter()
    writer.u32(IMAGE_VERSION)
    writer.u32(len(stored))
    for entry, sealed_result in stored:
        write_fields(
            writer, IMAGE_ENTRY_FIELDS, {**vars(entry), "sealed_result": sealed_result}
        )
    return writer.getvalue()


def decode_image(payload: bytes) -> list[dict]:
    """Parse an image into one ``IMAGE_ENTRY_FIELDS`` dict per entry."""
    reader = FieldReader(payload)
    version = reader.u32()
    if version != IMAGE_VERSION:
        raise StoreError(f"unsupported snapshot version {version}")
    items = [read_fields(reader, IMAGE_ENTRY_FIELDS) for _ in range(reader.u32())]
    reader.expect_end()
    return items


def apply_image(store, payload: bytes) -> tuple[int, int]:
    """Repopulate ``store`` from an image; returns (entries inserted,
    entries skipped because the store already held their tag)."""
    items = decode_image(payload)
    restored = sum(store.restore_entry(**item) for item in items)
    return restored, len(items) - restored


def checkpoint_counter_id(store) -> bytes:
    """The hardware monotonic counter anchoring one store's checkpoints."""
    return b"speed/wal/" + store.address.encode()


@dataclass(frozen=True)
class CheckpointImage:
    """One sealed checkpoint — host-durable, opaque to the host."""

    seq: int            # last WAL record sequence folded in (0 = none)
    chain: bytes        # chain head at that point (also sealed inside)
    sealed: SealedBlob


def encode_checkpoint(seq: int, chain: bytes, counter: int, image: bytes) -> bytes:
    writer = FieldWriter()
    writer.u32(CHECKPOINT_VERSION)
    writer.u64(seq)
    writer.blob(chain)
    writer.u64(counter)
    writer.blob(image)
    return writer.getvalue()


def decode_checkpoint(payload: bytes) -> tuple[int, bytes, int, bytes]:
    reader = FieldReader(payload)
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise StoreError(f"unsupported checkpoint version {version}")
    seq = reader.u64()
    chain = reader.blob()
    counter = reader.u64()
    image = reader.blob()
    reader.expect_end()
    return seq, chain, counter, image


def take_checkpoint(store) -> CheckpointImage:
    """Commit the log, seal the store's full state with the log anchor,
    and truncate the folded segments.  Returns the new image."""
    if store.durable is None:
        raise StoreError("checkpointing requires a durable-mode store")
    log = store.durable
    clock = store.platform.clock
    with store.ecall("durable_checkpoint"):
        log.commit()
        with store.tracer.span("durable.checkpoint", clock=clock) as span:
            seq = log.next_seq - 1
            chain = log.chain
            # Anchor this image against rollback: the hardware counter is
            # bumped first, so every older sealed image is now visibly stale.
            counter = store.platform.monotonic_increment(checkpoint_counter_id(store))
            payload = encode_checkpoint(seq, chain, counter, encode_image(store))
            sealed = store.enclave.seal(payload, SealPolicy.MRSIGNER)
            image = CheckpointImage(seq=seq, chain=chain, sealed=sealed)
            log.install_checkpoint(image)
            span.set("seq", seq)
            span.set("bytes", len(sealed.payload))
    return image


def maybe_checkpoint(store) -> CheckpointImage | None:
    """Checkpoint iff the log has grown past its configured interval.

    Deferred while a migration hand-off is open on this shard: folding
    the log would drop the MIGRATE_* marks a mid-migration recovery
    needs, so compaction waits for MIGRATE_END (the window is bounded by
    the migration itself).
    """
    log = store.durable
    if log is not None and log.needs_checkpoint() and not store.migration_open:
        return take_checkpoint(store)
    return None
