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

The sealed image is a single opaque blob the untrusted host may keep on
disk; tampering is detected by the seal's AEAD, and a blob from a
foreign signer fails to unseal at all.
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


def snapshot_store(store: ResultStore) -> SealedBlob:
    """Seal the store's full state for persistence (MRSIGNER policy)."""
    if store.enclave is None:
        raise StoreError("persistence requires an SGX-mode store")
    with store.enclave.ecall("snapshot"):
        return store.enclave.seal(encode_image(store), SealPolicy.MRSIGNER)


def restore_store(store: ResultStore, blob: SealedBlob) -> RestoreReport:
    """Unseal a snapshot into a (typically fresh) store.

    Raises :class:`~repro.errors.SealingError` if the snapshot was sealed
    by a different vendor's enclave or was modified at rest.
    """
    if store.enclave is None:
        raise StoreError("persistence requires an SGX-mode store")
    with store.enclave.ecall("restore", in_bytes=len(blob.payload)):
        restored, skipped = apply_image(store, store.enclave.unseal(blob))
        if store.durable is not None:
            store.durable.commit()
    store.stats.restores += 1
    store.stats.restored_entries += restored
    return RestoreReport(entries_restored=restored, entries_skipped=skipped)
