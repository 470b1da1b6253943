"""The oblivious-metadata store variant end-to-end."""

import pytest

from repro.deployment import Deployment
from repro.store.oblivious import ObliviousMetadataDict
from repro.store.resultstore import StoreConfig
from tests.conftest import DOUBLE_DESC, double_bytes, make_libs


@pytest.fixture
def oblivious_deployment():
    return Deployment(
        seed=b"oblivious-e2e",
        store_config=StoreConfig(oblivious_metadata=True, oblivious_capacity=128),
    )


class TestObliviousStore:
    def test_dedup_works_end_to_end(self, oblivious_deployment):
        d = oblivious_deployment
        app = d.create_application("app", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        for i in range(6):
            assert dedup(b"input-%d" % i) == double_bytes(b"input-%d" % i)
            app.runtime.flush_puts()
        for i in range(6):
            assert dedup(b"input-%d" % i) == double_bytes(b"input-%d" % i)
        assert app.runtime.stats.hits == 6
        assert isinstance(d.store._dict, ObliviousMetadataDict)

    def test_every_request_costs_one_oram_path(self, oblivious_deployment):
        d = oblivious_deployment
        app = d.create_application("app", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        dedup(b"x")                      # GET (miss) = 1 access
        app.runtime.flush_puts()         # PUT = 1 access
        dedup(b"x")                      # GET (hit) = 1 access
        assert d.store._dict.oram.accesses == 3

    def test_eviction_works_obliviously(self):
        d = Deployment(
            seed=b"oblivious-evict",
            store_config=StoreConfig(
                oblivious_metadata=True, oblivious_capacity=128,
                capacity_entries=3, eviction="lru",
            ),
        )
        app = d.create_application("app", make_libs())
        dedup = app.deduplicable(DOUBLE_DESC)
        for i in range(5):
            dedup(b"input-%d" % i)
            app.runtime.flush_puts()
        assert len(d.store) == 3
        assert d.store.stats.evictions == 2

    def test_oblivious_costs_more_than_plain(self):
        plain = Deployment(seed=b"cmp-plain")
        obliv = Deployment(
            seed=b"cmp-obliv",
            store_config=StoreConfig(oblivious_metadata=True, oblivious_capacity=64),
        )
        costs = {}
        for name, d in (("plain", plain), ("oblivious", obliv)):
            app = d.create_application("app", make_libs())
            dedup = app.deduplicable(DOUBLE_DESC)
            dedup(b"data")
            app.runtime.flush_puts()
            mark = d.clock.snapshot()
            dedup(b"data")
            costs[name] = d.clock.since(mark)
        assert costs["oblivious"] > costs["plain"]
