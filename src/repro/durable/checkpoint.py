"""Store images: the sealed whole-store state, with or without a log anchor.

An *image* is the plaintext of a store's whole state — every entry with
its ciphertext, contributor, hit count and insertion/recency sequence
numbers, so a restored store's LRU eviction keeps picking the same
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

The sealed checkpoint is one host name, ``<store>/checkpoint``.  After
sealing, the covered segments and their blob-area copies are dropped:
checkpointing doubles as log compaction.
"""

from __future__ import annotations

from ..errors import StoreError
from ..net.framing import Layout, Repeated, pack, unpack
from ..sgx.sealing import SealPolicy

IMAGE_VERSION = 2
#: One image entry: the keywords of ``ResultStore.restore_entry``.
IMAGE_ENTRY_FIELDS = Layout(
    ("tag", "blob"), ("challenge", "blob"), ("wrapped_key", "blob"),
    ("sealed_result", "blob"), ("app_id", "text"), ("hits", "u64"),
    ("insert_seq", "u64"), ("last_access_seq", "u64"),
)
IMAGE = Layout(("version", "u32"), ("entries", Repeated(IMAGE_ENTRY_FIELDS)))
CHECKPOINT_VERSION = 2
#: A checkpoint plaintext: the log anchor, the rollback counter, the image.
CHECKPOINT = Layout(
    ("version", "u32"), ("seq", "u64"), ("chain", "blob"), ("counter", "u64"),
    ("image", "blob"),
)


def encode_image(store) -> bytes:
    """``store``'s whole state as one plaintext (call inside its enclave)."""
    entries = [
        {**vars(entry), "sealed_result": sealed_result}
        for entry, sealed_result in store.stored()
    ]
    return pack(IMAGE, {"version": IMAGE_VERSION, "entries": entries})


def decode_image(payload: bytes) -> tuple[dict, ...]:
    """Parse an image into one ``IMAGE_ENTRY_FIELDS`` dict per entry."""
    image = unpack(IMAGE, payload)
    if image["version"] != IMAGE_VERSION:
        raise StoreError(f"unsupported snapshot version {image['version']}")
    return image["entries"]


def apply_image(store, payload: bytes) -> tuple[int, int]:
    """Repopulate ``store`` from an image; returns (entries inserted,
    entries skipped because the store already held their tag)."""
    items = decode_image(payload)
    restored = sum(store.restore_entry(**item) for item in items)
    return restored, len(items) - restored


def checkpoint_counter_id(store) -> bytes:
    """The hardware monotonic counter anchoring one store's checkpoints."""
    return b"speed/wal/" + store.address.encode()


def encode_checkpoint(seq: int, chain: bytes, counter: int, image: bytes) -> bytes:
    return pack(CHECKPOINT, {
        "version": CHECKPOINT_VERSION, "seq": seq, "chain": chain,
        "counter": counter, "image": image,
    })


def decode_checkpoint(payload: bytes) -> tuple[int, bytes, int, bytes]:
    fields = unpack(CHECKPOINT, payload)
    if fields["version"] != CHECKPOINT_VERSION:
        raise StoreError(f"unsupported checkpoint version {fields['version']}")
    return fields["seq"], fields["chain"], fields["counter"], fields["image"]


def take_checkpoint(store) -> None:
    """Commit the log, seal the store's full state with the log anchor
    (kept by the host under the log's ``checkpoint_name``), and truncate
    the folded segments."""
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
            log.install_checkpoint(sealed.payload)
            span.set("seq", seq)
            span.set("bytes", len(sealed.payload))


def maybe_checkpoint(store) -> None:
    """Checkpoint iff the log has grown past its configured interval.

    Deferred while a migration hand-off is open on this shard: folding
    the log would drop the MIGRATE_* marks a mid-migration recovery
    needs, so compaction waits for MIGRATE_END (the window is bounded by
    the migration itself).
    """
    log = store.durable
    if log is not None and log.needs_checkpoint() and not store.migration_open:
        take_checkpoint(store)
