"""The encrypted ResultStore and its management machinery.

Implements §IV-B of the paper: the enclave-protected metadata dictionary
(:mod:`.metadata`, which keeps the LRU eviction order), the
outside-enclave ciphertext arena (:mod:`.blobstore`), the DoS quota
mechanism of §III-D (:mod:`.quota`), the service itself
(:mod:`.resultstore` — one insert path behind the wire PUT, hand-off
ingest, WAL replay and image restore), store-to-store hand-off incl.
master-store replication (:mod:`.sync`), and sealed snapshots
(:mod:`.persistence`).
"""

from .authorization import AuthorizationError, AuthorizationPolicy
from .blobstore import BlobStore
from .metadata import ENTRY_SLOT_BYTES, MetadataDict, MetadataEntry, blob_digest
from .quota import QuotaManager, QuotaPolicy
from .resultstore import ResultStore, StoreConfig, StoreStats
from .sync import SyncReport, replicate_popular

__all__ = [
    "AuthorizationError",
    "AuthorizationPolicy",
    "BlobStore",
    "ENTRY_SLOT_BYTES",
    "MetadataDict",
    "MetadataEntry",
    "QuotaManager",
    "QuotaPolicy",
    "ResultStore",
    "StoreConfig",
    "StoreStats",
    "SyncReport",
    "blob_digest",
    "replicate_popular",
]
