"""Sealed snapshots: a ResultStore's state across a graceful restart.

The paper's ResultStore keeps its metadata dictionary in enclave memory;
a machine reboot or service upgrade would discard every cached result.
Real deployments persist state with the sealing facility the SDK
provides (§II-D "hardware enclaves").  A snapshot is a *checkpoint image
without a log anchor* (:mod:`repro.durable.checkpoint` defines the image
and writes the anchored kind):

* :func:`snapshot_store` — inside the store enclave, serialize the
  dictionary (entries, their ciphertext blobs, hit counts and
  insertion/recency sequence numbers) and seal it under the **MRSIGNER**
  policy, so an upgraded store build from the same vendor can still
  restore it.
* :func:`restore_store` — unseal inside the (possibly new) store enclave
  and put every entry back through the store's one insert path: each
  makes room by policy like any other arrival, keeps its place in the
  eviction order, re-credits its contributor's quota and, on a durable
  store, is re-logged (or a later power failure would silently lose it).

The sealed image is one opaque payload the host keeps on disk, under
:func:`snapshot_name`; tampering is detected by the seal's AEAD, and a
blob from a foreign signer fails to unseal at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .resultstore import ResultStore
from ..durable.checkpoint import apply_image, encode_image
from ..errors import StoreError
from ..sgx.sealing import SealedBlob, SealPolicy


@dataclass(frozen=True)
class RestoreReport:
    """Outcome of a restore."""

    entries_restored: int
    entries_skipped: int  # duplicates already present


def snapshot_name(store: ResultStore) -> str:
    """The host name a store's snapshot is kept under."""
    return f"{store.address}/snapshot"


def snapshot_store(store: ResultStore) -> None:
    """Seal the store's full state (MRSIGNER policy) and leave it with the
    host under :func:`snapshot_name`."""
    if store.enclave is None:
        raise StoreError("persistence requires an SGX-mode store")
    with store.enclave.ecall("snapshot"):
        sealed = store.enclave.seal(encode_image(store), SealPolicy.MRSIGNER)
    store.platform.host.put(snapshot_name(store), sealed.payload)


def restore_store(store: ResultStore) -> RestoreReport:
    """Unseal the snapshot the host keeps under :func:`snapshot_name` into
    a (typically fresh) store.

    Raises :class:`~repro.errors.SealingError` if the snapshot was sealed
    by a different vendor's enclave or was modified at rest.
    """
    if store.enclave is None:
        raise StoreError("persistence requires an SGX-mode store")
    payload = store.platform.host.get(snapshot_name(store))
    if payload is None:
        raise StoreError(f"the host holds no snapshot for {store.address}")
    with store.enclave.ecall("restore", in_bytes=len(payload)):
        image = store.enclave.unseal(SealedBlob(SealPolicy.MRSIGNER, payload))
        restored, skipped = apply_image(store, image)
        if store.durable is not None:
            store.durable.commit()
    store.stats.restores += 1
    store.stats.restored_entries += restored
    return RestoreReport(entries_restored=restored, entries_skipped=skipped)
