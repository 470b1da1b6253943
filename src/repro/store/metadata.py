"""The enclave-protected metadata dictionary ``D``.

Per §IV-B: "The main data structure used here is an enclave-protected
dictionary storing previous computation results keyed by the tag t.  To
maximize the utility of limited enclave memory, the dictionary entry is
designed to be small: it maintains some metadata (e.g., challenge message
r and authentication MAC), and a pointer to the real result ciphertexts
that are kept outside the enclave."

Entries occupy fixed-size slots so the EPC model can charge page touches
for dictionary accesses; the result ciphertexts themselves never enter
the dictionary.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import takewhile

from ..crypto.hashes import tagged_hash
from ..errors import StoreError

# challenge r (32) + wrapped key (16) + blob digest (32) + pointer,
# counters and bookkeeping — one cache-friendly 128-byte slot.
ENTRY_SLOT_BYTES = 128


@dataclass
class MetadataEntry:
    """One dictionary slot: everything but the ciphertext itself."""

    tag: bytes
    challenge: bytes       # r   — kept only inside the enclave
    wrapped_key: bytes     # [k] — k ⊕ Hash(func, m, r)
    blob_ref: int          # pointer into the untrusted blob store
    blob_digest: bytes     # binds the pointer to the exact ciphertext bytes
    size: int              # ciphertext size (for quotas)
    app_id: str            # contributor (for quota accounting)
    hits: int = 0
    insert_seq: int = 0
    last_access_seq: int = 0
    slot: int = field(default=-1)


def blob_digest(sealed_result: bytes) -> bytes:
    """Digest pinning a blob's exact content into the in-enclave entry.

    The blob is AEAD ciphertext already, but its GCM tag can only be
    checked by an application holding ``k``; this digest lets the *store
    enclave* detect substitution of the untrusted bytes on every GET.
    """
    return tagged_hash(b"store/blob-digest", sealed_result)


class MetadataDict:
    """Slot-allocating dictionary keyed by tag.

    ``touch`` integration: callers pass an accessor callback (usually
    ``enclave.touch``) so every lookup/update charges EPC traffic for the
    slot it lands on.

    Beside the entries in insertion order (every scan and image's) it
    keeps them by ascending ``last_access_seq``, so the LRU victim is a
    head, not a scan (:meth:`least_recent`).
    """

    def __init__(self):
        self._entries: dict[bytes, MetadataEntry] = {}
        self._recency: OrderedDict[bytes, MetadataEntry] = OrderedDict()
        self._free_slots: list[int] = []
        self._next_slot = 0
        self._seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, tag: bytes) -> bool:
        return tag in self._entries

    def _tick(self) -> int:
        self._seq += 1
        return self._seq

    def peek(self, tag: bytes) -> MetadataEntry | None:
        """Non-mutating lookup (introspection/tests; no hit accounting)."""
        return self._entries.get(tag)

    def get(self, tag: bytes, touch=None) -> MetadataEntry | None:
        entry = self._entries.get(tag)
        if entry is None:
            return None
        if touch is not None:
            touch("store/metadata", entry.slot * ENTRY_SLOT_BYTES, ENTRY_SLOT_BYTES)
        entry.hits += 1
        self._seq += 1
        entry.last_access_seq = self._seq
        self._recency.move_to_end(tag)
        return entry

    def put(self, entry: MetadataEntry, touch=None) -> None:
        """Insert ``entry``.  A new entry is stamped "inserted and last
        used now"; one that carries its sequence numbers (it comes back
        from a snapshot or checkpoint image) keeps them and its hit
        count, so eviction picks the same victims after a restart, and
        the internal counter advances past them to keep later stamps
        monotonic."""
        if entry.tag in self._entries:
            raise StoreError("duplicate tag insert; use replace semantics explicitly")
        if self._free_slots:
            entry.slot = self._free_slots.pop()
        else:
            entry.slot = self._next_slot
            self._next_slot += 1
        recency = self._recency
        if entry.insert_seq:
            self._seq = max(self._seq, entry.insert_seq, entry.last_access_seq)
            # A restored entry's old stamp goes before every later-used
            # entry (after equals: the reference scan ties by insertion order).
            seq = entry.last_access_seq
            later = list(takewhile(lambda t: recency[t].last_access_seq > seq, reversed(recency)))
            recency[entry.tag] = entry
            for tag in reversed(later):
                recency.move_to_end(tag)
        else:  # a fresh stamp is the newest
            entry.insert_seq = entry.last_access_seq = self._tick()
            recency[entry.tag] = entry
        if touch is not None:
            touch("store/metadata", entry.slot * ENTRY_SLOT_BYTES, ENTRY_SLOT_BYTES)
        self._entries[entry.tag] = entry

    def touch_restore(self, tag: bytes, hits: int, touch=None) -> bool:
        """Re-apply a logged GET-recency mark (WAL replay): the entry's
        hit counter jumps to the logged value and its recency advances in
        log order, so LRU victims match the pre-crash access pattern.
        Returns False if the tag is unknown (evicted later in the log)."""
        entry = self._entries.get(tag)
        if entry is None:
            return False
        if touch is not None:
            touch("store/metadata", entry.slot * ENTRY_SLOT_BYTES, ENTRY_SLOT_BYTES)
        entry.hits = max(entry.hits, hits)
        entry.last_access_seq = self._tick()
        self._recency.move_to_end(tag)
        return True

    def remove(self, tag: bytes) -> MetadataEntry:
        entry = self._entries.pop(tag, None)
        if entry is None:
            raise StoreError("cannot remove unknown tag")
        del self._recency[tag]
        self._free_slots.append(entry.slot)
        return entry

    def entries(self) -> list[MetadataEntry]:
        return list(self._entries.values())

    def least_recent(self) -> MetadataEntry:
        """The LRU victim: the entry with the smallest ``last_access_seq``
        (the first in insertion order among equals)."""
        if not self._recency:
            raise StoreError("eviction requested from an empty store")
        return next(iter(self._recency.values()))
