"""In-enclave L1 tag→result cache for the batched dedup pipeline.

The ResultStore round-trip costs two transitions, a network hop, and a
channel record even on a hit.  For tags an application sees repeatedly,
a small cache of *verified* plaintext results inside the application
enclave short-circuits the network entirely — the dedup analogue of a
CPU's L1 in front of the shared L2.

Security note: only results that passed the Fig. 3 verification protocol
(or were just computed locally) are inserted, so a poisoned ResultStore
entry can never be served from here; the cache holds exactly what the
enclave itself was already entitled to see in plaintext.

Cost model: the cache lives in enclave heap, so every lookup and insert
touches its pages through :meth:`Enclave.touch`, charging EPC page
faults when the cached working set outgrows the EPC — an oversized L1
pays for itself in paging, exactly the pressure that made the paper keep
result ciphertexts *outside* the store enclave.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..errors import DedupError
from ..sgx.enclave import Enclave

# Per-entry bookkeeping overhead charged to the arena beyond the result
# bytes: the 32-byte tag plus list/refcount plumbing.
ENTRY_OVERHEAD_BYTES = 64


@dataclass
class L1CacheStats:
    """Operational counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0


class _Arena:
    """Page-granular offset allocator for the cache's enclave region.

    Entries get stable extents so the EPC model sees a realistic page
    working set; freed extents are reused for later entries of the same
    page count.
    """

    def __init__(self, page_size: int):
        self._page_size = page_size
        self._cursor = 0
        self._free: dict[int, list[int]] = {}

    def allocate(self, n_bytes: int) -> int:
        pages = max(1, -(-n_bytes // self._page_size))
        bucket = self._free.get(pages)
        if bucket:
            return bucket.pop()
        offset = self._cursor
        self._cursor += pages * self._page_size
        return offset

    def release(self, offset: int, n_bytes: int) -> None:
        self._free.setdefault(max(1, -(-n_bytes // self._page_size)), []).append(offset)


class L1ResultCache:
    """Bounded LRU cache of verified results keyed by tag.

    Parameters
    ----------
    enclave:
        The application enclave whose heap holds the cache; lookups and
        inserts must happen while execution is inside it.
    max_entries:
        Entry-count bound (> 0).
    max_bytes:
        Optional bound on the summed entry footprints (result bytes plus
        per-entry overhead).  Results larger than the bound are simply
        not cached.
    """

    def __init__(
        self,
        enclave: Enclave,
        max_entries: int,
        max_bytes: int | None = None,
        region: str = "runtime/l1cache",
    ):
        if max_entries <= 0:
            raise DedupError("L1 cache needs max_entries > 0")
        if max_bytes is not None and max_bytes <= 0:
            raise DedupError("L1 cache max_bytes must be positive when set")
        self._enclave = enclave
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._region = region
        # tag -> (result_bytes, arena offset, charged footprint)
        self._entries: OrderedDict[bytes, tuple[bytes, int, int]] = OrderedDict()
        self._arena = _Arena(enclave.platform.clock.params.page_size)
        self.current_bytes = 0
        self.stats = L1CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, tag: bytes) -> bool:
        return tag in self._entries

    def get(self, tag: bytes) -> bytes | None:
        """Look up a tag; a hit touches the entry's pages and refreshes
        its LRU position."""
        entry = self._entries.get(tag)
        if entry is None:
            self.stats.misses += 1
            return None
        result, offset, footprint = entry
        self._entries.move_to_end(tag)
        self._enclave.touch(self._region, offset, footprint)
        self.stats.hits += 1
        return result

    def put(self, tag: bytes, result_bytes: bytes) -> bool:
        """Insert a verified result; returns False when it cannot be
        cached (already present, or larger than the byte bound)."""
        if tag in self._entries:
            self._entries.move_to_end(tag)
            return False
        footprint = len(result_bytes) + ENTRY_OVERHEAD_BYTES
        if self.max_bytes is not None and footprint > self.max_bytes:
            return False
        while len(self._entries) >= self.max_entries or (
            self.max_bytes is not None
            and self.current_bytes + footprint > self.max_bytes
        ):
            self._evict_lru()
        offset = self._arena.allocate(footprint)
        self._entries[tag] = (result_bytes, offset, footprint)
        self.current_bytes += footprint
        self._enclave.touch(self._region, offset, footprint)
        self.stats.insertions += 1
        return True

    def _evict_lru(self) -> None:
        tag, (_, offset, footprint) = self._entries.popitem(last=False)
        self._arena.release(offset, footprint)
        self.current_bytes -= footprint
        self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (keeps cumulative stats)."""
        while self._entries:
            self._evict_lru()
