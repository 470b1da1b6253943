"""Cache-eviction policies for the ResultStore.

The paper keeps the store "light-weight" (§III-D); when a capacity bound
is configured, a policy chooses which reusable result to drop.  LRU is
the default and the only policy an experiment runs (ablation A4 keeps
it); LFU and FIFO are selectable through ``StoreConfig.eviction`` and
only tests select them.

A store asks a policy for its :meth:`~EvictionPolicy.victim`.  LRU reads
the head of ``MetadataDict``'s recency order, so a full store's PUT scans
no entries; the oblivious dictionary keeps no such order and pays its
documented full scan, as LFU and FIFO do: :meth:`~EvictionPolicy.select_victim`
over every entry, the reference that defines each policy's victim.
"""

from __future__ import annotations

import abc

from .metadata import MetadataDict, MetadataEntry
from ..errors import StoreError


class EvictionPolicy(abc.ABC):
    """Strategy interface: pick a victim among current entries."""

    name: str = "abstract"

    @abc.abstractmethod
    def select_victim(self, entries: list[MetadataEntry]) -> MetadataEntry:
        """Return the entry to evict; ``entries`` is non-empty."""

    def victim(self, metadata) -> MetadataEntry:
        """The entry to evict from a metadata dictionary."""
        return self.select_victim(metadata.entries())

    def _require(self, entries: list[MetadataEntry]) -> None:
        if not entries:
            raise StoreError("eviction requested from an empty store")


class LruPolicy(EvictionPolicy):
    """Evict the least-recently-used entry."""

    name = "lru"

    def select_victim(self, entries: list[MetadataEntry]) -> MetadataEntry:
        self._require(entries)
        return min(entries, key=lambda e: e.last_access_seq)

    def victim(self, metadata) -> MetadataEntry:
        if isinstance(metadata, MetadataDict):
            return metadata.least_recent()
        return super().victim(metadata)


class LfuPolicy(EvictionPolicy):
    """Evict the least-frequently-hit entry (ties: older first)."""

    name = "lfu"

    def select_victim(self, entries: list[MetadataEntry]) -> MetadataEntry:
        self._require(entries)
        return min(entries, key=lambda e: (e.hits, e.insert_seq))


class FifoPolicy(EvictionPolicy):
    """Evict the oldest entry regardless of use."""

    name = "fifo"

    def select_victim(self, entries: list[MetadataEntry]) -> MetadataEntry:
        self._require(entries)
        return min(entries, key=lambda e: e.insert_seq)


POLICIES: dict[str, type[EvictionPolicy]] = {
    cls.name: cls for cls in (LruPolicy, LfuPolicy, FifoPolicy)
}


def make_policy(name: str) -> EvictionPolicy:
    """Instantiate a policy by name ('lru', 'lfu', 'fifo')."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise StoreError(f"unknown eviction policy {name!r}") from None
