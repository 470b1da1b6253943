"""ResultStore persistence across restarts, via SGX sealing.

The paper's ResultStore keeps its metadata dictionary in enclave memory;
a machine reboot or service upgrade would discard every cached result.
Real deployments persist state with the sealing facility the SDK
provides (§II-D "hardware enclaves"), which is exactly what this module
does:

* :func:`snapshot_store` — inside the store enclave, serialize the
  dictionary (entries + their ciphertext blobs) and seal it under the
  **MRSIGNER** policy, so an upgraded store build from the same vendor
  can still restore it.
* :func:`restore_store` — unseal inside the (possibly new) store enclave
  and repopulate the dictionary and blob arena.

Snapshot format v2 also carries each entry's hit count and
insertion/recency sequence numbers, so a restored store's eviction
policies (LRU recency, LFU frequency, FIFO order) keep picking the same
victims they would have before the restart; restored entries likewise
re-credit their contributors' quota usage.  v1 images (no sequence
numbers) still load, falling back to insertion-order recency.

The sealed image is a single opaque blob the untrusted host may keep on
disk; tampering is detected by the seal's AEAD, and a blob from a
foreign signer fails to unseal at all.  The :mod:`repro.durable`
subsystem builds its checkpoints on this same serialization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metadata import MetadataEntry, blob_digest
from .resultstore import HANDOFF_APP_ID, ResultStore
from ..errors import StoreError
from ..net.framing import FieldReader, FieldWriter
from ..sgx.sealing import SealedBlob, SealPolicy

_FORMAT_VERSION = 2


@dataclass(frozen=True)
class RestoreReport:
    """Outcome of a restore."""

    entries_restored: int
    entries_skipped: int  # duplicates already present


@dataclass(frozen=True)
class _SnapshotEntry:
    """One deserialized snapshot record (format-version agnostic)."""

    tag: bytes
    challenge: bytes
    wrapped_key: bytes
    sealed_result: bytes
    app_id: str
    hits: int
    insert_seq: int        # 0 in v1 images (unknown)
    last_access_seq: int   # 0 in v1 images (unknown)


def serialize_store_payload(store: ResultStore) -> bytes:
    """The snapshot plaintext (entries, blobs, and policy state) —
    sealed by :func:`snapshot_store` and by the durable checkpointer."""
    writer = FieldWriter()
    writer.u32(_FORMAT_VERSION)
    entries = store._dict.entries()
    writer.u32(len(entries))
    for entry in entries:
        sealed_result = store.blobstore.get(entry.blob_ref)
        writer.blob(entry.tag)
        writer.blob(entry.challenge)
        writer.blob(entry.wrapped_key)
        writer.blob(sealed_result)
        writer.text(entry.app_id)
        writer.u64(entry.hits)
        writer.u64(entry.insert_seq)
        writer.u64(entry.last_access_seq)
    return writer.getvalue()


def _deserialize_entries(data: bytes):
    reader = FieldReader(data)
    version = reader.u32()
    if version not in (1, _FORMAT_VERSION):
        raise StoreError(f"unsupported snapshot version {version}")
    count = reader.u32()
    for _ in range(count):
        tag = reader.blob()
        challenge = reader.blob()
        wrapped_key = reader.blob()
        sealed_result = reader.blob()
        app_id = reader.text()
        hits = reader.u64()
        insert_seq = reader.u64() if version >= 2 else 0
        last_access_seq = reader.u64() if version >= 2 else 0
        yield _SnapshotEntry(
            tag=tag,
            challenge=challenge,
            wrapped_key=wrapped_key,
            sealed_result=sealed_result,
            app_id=app_id,
            hits=hits,
            insert_seq=insert_seq,
            last_access_seq=last_access_seq,
        )


def apply_snapshot_entry(store: ResultStore, item: _SnapshotEntry) -> bool:
    """Re-insert one snapshot entry (duplicates skipped); preserves
    policy state when the image carries it and re-credits quota usage.
    Returns True iff the entry was inserted."""
    if store.contains(item.tag):
        return False
    store._make_room(len(item.sealed_result))
    ref = store._write_blob(item.sealed_result)
    entry = MetadataEntry(
        tag=item.tag,
        challenge=item.challenge,
        wrapped_key=item.wrapped_key,
        blob_ref=ref,
        blob_digest=blob_digest(item.sealed_result),
        size=len(item.sealed_result),
        app_id=item.app_id,
        hits=item.hits,
        insert_seq=item.insert_seq,
        last_access_seq=item.last_access_seq,
    )
    restore_entry = getattr(store._dict, "restore_entry", None)
    if restore_entry is not None and item.insert_seq:
        restore_entry(entry, touch=store._touch)
    else:
        store._dict.put(entry, touch=store._touch)
    if store._quota is not None and item.app_id != HANDOFF_APP_ID:
        store._quota.restore(item.app_id, entry.size)
    if store.durable is not None and not store._durable_suspended:
        # A durable store must also re-log what the snapshot put back in
        # memory, or a later power failure would silently lose it.
        store.durable.append_put(entry, item.sealed_result)
    return True


def apply_snapshot_payload(store: ResultStore, payload: bytes) -> int:
    """Repopulate ``store`` from a snapshot plaintext; returns how many
    entries were inserted (the durable checkpoint-restore path)."""
    restored = 0
    for item in _deserialize_entries(payload):
        if apply_snapshot_entry(store, item):
            restored += 1
    return restored


def snapshot_store(store: ResultStore) -> SealedBlob:
    """Seal the store's full state for persistence (MRSIGNER policy)."""
    if store.enclave is None:
        raise StoreError("persistence requires an SGX-mode store")
    with store.enclave.ecall("snapshot"):
        payload = serialize_store_payload(store)
        return store.enclave.seal(payload, SealPolicy.MRSIGNER)


def restore_store(store: ResultStore, blob: SealedBlob) -> RestoreReport:
    """Unseal a snapshot into a (typically fresh) store.

    Raises :class:`~repro.errors.SealingError` if the snapshot was sealed
    by a different vendor's enclave or was modified at rest.
    """
    if store.enclave is None:
        raise StoreError("persistence requires an SGX-mode store")
    restored = 0
    skipped = 0
    with store.enclave.ecall("restore", in_bytes=len(blob.payload)):
        payload = store.enclave.unseal(blob)
        for item in _deserialize_entries(payload):
            if apply_snapshot_entry(store, item):
                restored += 1
            else:
                skipped += 1
        if store.durable is not None:
            store.durable.commit()
    store.stats.restores += 1
    store.stats.restored_entries += restored
    return RestoreReport(entries_restored=restored, entries_skipped=skipped)
