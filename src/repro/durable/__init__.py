"""Log-structured persistence for the ResultStore (``repro.durable``).

The paper's ResultStore keeps its metadata dictionary in enclave memory
and its ciphertexts in untrusted RAM; a real power failure discards both.
This package gives a store a durable half, following the shape of
production enclave key-value stores:

* :mod:`repro.durable.wal` — a sealed, MAC-chained write-ahead log.
  Every accepted PUT/evict/discard appends a record to an in-enclave
  buffer; ``commit()`` seals the buffer as one segment (group commit —
  one seal AEAD pass amortized over the batch, charged to the virtual
  clock) and extends a hash chain that binds segment order.
* :mod:`repro.durable.checkpoint` — defines the store *image* (every
  entry with its ciphertext and eviction state) and periodically
  folds the log into one, sealed with its log anchor, truncating the
  covered segments.  (:mod:`repro.store.persistence` seals the same image
  without an anchor: a snapshot.)
* :mod:`repro.durable.recovery` — restores the checkpoint, replays the
  chain-verified log tail, and reports what it found (torn tails, chain
  breaks, missing blobs) as a structured :class:`RecoveryReport`.  Both
  put entries back through the store's one insert path.

The durable artifacts — sealed segments, the sealed checkpoint, and the
logged ciphertexts — are names in the untrusted host's storage and survive
:meth:`~repro.store.resultstore.ResultStore.power_fail`; everything else
is wiped.  Because the store commits its log before a reply leaves the
machine, every *acknowledged* PUT is durable by construction.
"""

from .checkpoint import maybe_checkpoint, take_checkpoint
from .recovery import RecoveryReport, recover_store
from .wal import DurableLog, WalRecord

__all__ = [
    "DurableLog",
    "RecoveryReport",
    "WalRecord",
    "maybe_checkpoint",
    "recover_store",
    "take_checkpoint",
]
