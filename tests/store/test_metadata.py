"""Metadata dictionary: slots, access tracking, EPC touch integration."""

import pytest

from repro.errors import StoreError
from repro.store.metadata import ENTRY_SLOT_BYTES, MetadataDict, MetadataEntry, blob_digest


def entry(tag: bytes, size=100, app="app") -> MetadataEntry:
    return MetadataEntry(
        tag=tag, challenge=b"r" * 32, wrapped_key=b"k" * 16,
        blob_ref=1, blob_digest=blob_digest(b"blob"), size=size, app_id=app,
    )


class TestBasics:
    def test_put_get(self):
        d = MetadataDict()
        d.put(entry(b"t1"))
        assert d.get(b"t1").tag == b"t1"
        assert d.get(b"missing") is None

    def test_contains_and_len(self):
        d = MetadataDict()
        assert b"t" not in d
        d.put(entry(b"t"))
        assert b"t" in d
        assert len(d) == 1

    def test_duplicate_insert_rejected(self):
        d = MetadataDict()
        d.put(entry(b"t"))
        with pytest.raises(StoreError):
            d.put(entry(b"t"))

    def test_remove(self):
        d = MetadataDict()
        d.put(entry(b"t"))
        removed = d.remove(b"t")
        assert removed.tag == b"t"
        assert b"t" not in d

    def test_remove_unknown_rejected(self):
        with pytest.raises(StoreError):
            MetadataDict().remove(b"ghost")


class TestAccessTracking:
    def test_hits_increment(self):
        d = MetadataDict()
        d.put(entry(b"t"))
        d.get(b"t")
        d.get(b"t")
        assert d.get(b"t").hits == 3

    def test_recency_ordering(self):
        d = MetadataDict()
        d.put(entry(b"a"))
        d.put(entry(b"b"))
        d.get(b"a")
        entries = {e.tag: e for e in d.entries()}
        assert entries[b"a"].last_access_seq > entries[b"b"].last_access_seq


class TestSlots:
    def test_slots_are_reused(self):
        d = MetadataDict()
        d.put(entry(b"a"))
        slot_a = d.get(b"a").slot
        d.remove(b"a")
        d.put(entry(b"b"))
        assert d.get(b"b").slot == slot_a

    def test_extent_grows_with_fresh_slots(self):
        d = MetadataDict()
        for i in range(5):
            d.put(entry(bytes([i]) * 4))
        assert d._next_slot == 5  # five fresh slots, none reused

    def test_touch_callback_receives_slot_extent(self):
        touches = []
        d = MetadataDict()
        d.put(entry(b"t"), touch=lambda r, o, n: touches.append((r, o, n)))
        d.get(b"t", touch=lambda r, o, n: touches.append((r, o, n)))
        assert touches[0] == ("store/metadata", 0, ENTRY_SLOT_BYTES)
        assert touches[1] == touches[0]


class TestBlobDigest:
    def test_deterministic(self):
        assert blob_digest(b"x") == blob_digest(b"x")

    def test_sensitive_to_content(self):
        assert blob_digest(b"x") != blob_digest(b"y")
