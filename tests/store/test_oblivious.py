"""Path ORAM: correctness, stash behaviour, obliviousness shape."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.sgx.cost_model import SimClock
from repro.store.oblivious import PathOram


def key(i: int) -> bytes:
    return b"key-%04d" % i


class TestCorrectness:
    def test_put_get(self):
        oram = PathOram(capacity=16)
        oram.put(key(1), "value-1")
        assert oram.get(key(1)) == "value-1"

    def test_missing_key_returns_none(self):
        oram = PathOram(capacity=16)
        assert oram.get(key(9)) is None

    def test_update_overwrites(self):
        oram = PathOram(capacity=16)
        oram.put(key(1), "old")
        oram.put(key(1), "new")
        assert oram.get(key(1)) == "new"
        assert len(oram) == 1

    def test_remove(self):
        oram = PathOram(capacity=16)
        oram.put(key(1), "v")
        assert oram.remove(key(1)) == "v"
        assert oram.get(key(1)) is None
        assert len(oram) == 0

    def test_many_keys_survive_churn(self):
        oram = PathOram(capacity=64, seed=b"churn")
        expected = {}
        for i in range(64):
            oram.put(key(i), i)
            expected[key(i)] = i
        # Interleave reads/updates/deletes.
        for i in range(0, 64, 3):
            oram.put(key(i), i * 10)
            expected[key(i)] = i * 10
        for i in range(1, 64, 7):
            oram.remove(key(i))
            del expected[key(i)]
        for k, v in expected.items():
            assert oram.get(k) == v, k

    def test_capacity_enforced(self):
        oram = PathOram(capacity=4)
        for i in range(4):
            oram.put(key(i), i)
        with pytest.raises(StoreError):
            oram.put(key(99), 99)

    def test_invalid_capacity(self):
        with pytest.raises(StoreError):
            PathOram(capacity=0)

    @given(st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 2)),  # (key idx, op)
        max_size=60,
    ))
    @settings(max_examples=25, deadline=None)
    def test_model_equivalence(self, operations):
        """ORAM behaves exactly like a dict under arbitrary op sequences."""
        oram = PathOram(capacity=32, seed=b"prop")
        model: dict[bytes, int] = {}
        for i, (k_idx, op) in enumerate(operations):
            k = key(k_idx)
            if op == 0:  # put
                if k in model or len(model) < 32:
                    oram.put(k, i)
                    model[k] = i
            elif op == 1:  # get
                assert oram.get(k) == model.get(k)
            else:  # remove
                assert oram.remove(k) == model.pop(k, None)
        for k, v in model.items():
            assert oram.get(k) == v


class TestObliviousness:
    def test_reads_remap_the_leaf(self):
        # The defining mechanism: after an access the block moves to a
        # fresh random path, so repeating a key does not repeat a path.
        oram = PathOram(capacity=256, seed=b"remap")
        oram.put(key(1), "v")
        leaves = set()
        for _ in range(16):
            oram.get(key(1))
            leaves.add(oram._position.get(key(1)))
        assert len(leaves) > 4

    def test_miss_and_hit_both_cost_one_path(self):
        clock_hit, clock_miss = SimClock(), SimClock()
        oram_hit = PathOram(capacity=64, clock=clock_hit, seed=b"a")
        oram_miss = PathOram(capacity=64, clock=clock_miss, seed=b"a")
        oram_hit.put(key(1), "v")
        oram_miss.put(key(1), "v")
        base_hit = clock_hit.snapshot()
        base_miss = clock_miss.snapshot()
        oram_hit.get(key(1))        # present
        oram_miss.get(key(999))     # absent
        assert clock_hit.since(base_hit) == clock_miss.since(base_miss)

    def test_stash_stays_small(self):
        oram = PathOram(capacity=128, seed=b"stash")
        for i in range(128):
            oram.put(key(i), i)
        for round_ in range(3):
            for i in range(128):
                oram.get(key(i))
        # Classic Path ORAM result: stash stays O(log N)-ish.
        assert oram.max_stash_seen < 40

    def test_access_counter(self):
        oram = PathOram(capacity=8)
        oram.put(key(1), 1)
        oram.get(key(1))
        oram.remove(key(1))
        assert oram.accesses == 3


class TestObliviousMetadataDict:
    def _entry(self, i: int, size=100):
        from repro.store.metadata import MetadataEntry, blob_digest

        return MetadataEntry(
            tag=b"tag-%04d" % i, challenge=b"r" * 32, wrapped_key=b"k" * 16,
            blob_ref=i, blob_digest=blob_digest(b"blob"), size=size, app_id="a",
        )

    def test_dict_interface(self):
        from repro.store.oblivious import ObliviousMetadataDict

        d = ObliviousMetadataDict(capacity=16)
        d.put(self._entry(1))
        assert len(d) == 1
        assert b"tag-0001" in d
        entry = d.get(b"tag-0001")
        assert entry.hits == 1
        d.get(b"tag-0001")
        assert d.peek(b"tag-0001").hits == 2  # peek does not bump hits
        removed = d.remove(b"tag-0001")
        assert removed.tag == b"tag-0001"
        assert len(d) == 0

    def test_entries_scan(self):
        from repro.store.oblivious import ObliviousMetadataDict

        d = ObliviousMetadataDict(capacity=16)
        for i in range(5):
            d.put(self._entry(i))
        tags = sorted(e.tag for e in d.entries())
        assert tags == [b"tag-%04d" % i for i in range(5)]

    def test_duplicate_put_rejected(self):
        import pytest as _pytest

        from repro.errors import StoreError
        from repro.store.oblivious import ObliviousMetadataDict

        d = ObliviousMetadataDict(capacity=16)
        d.put(self._entry(1))
        with _pytest.raises(StoreError):
            d.put(self._entry(1))

    def test_remove_unknown_rejected(self):
        import pytest as _pytest

        from repro.errors import StoreError
        from repro.store.oblivious import ObliviousMetadataDict

        with _pytest.raises(StoreError):
            ObliviousMetadataDict(capacity=4).remove(b"ghost")

    def test_no_enclave_heap_extent(self):
        from repro.store.oblivious import ObliviousMetadataDict

        touches = []
        d = ObliviousMetadataDict(capacity=4)
        d.put(self._entry(1), touch=lambda *page: touches.append(page))
        d.get(self._entry(1).tag, touch=lambda *page: touches.append(page))
        assert touches == []  # the tree lives outside the EPC
