"""The in-enclave L1 tag→result cache: LRU behavior, EPC cost, safety."""

import pytest

from repro import RuntimeConfig
from repro.core.cache import ENTRY_OVERHEAD_BYTES, L1ResultCache
from repro.deployment import Deployment
from repro.errors import DedupError, EnclaveError
from repro.security import HostAdversary
from repro.sgx.platform import SgxPlatform
from tests.conftest import DOUBLE_DESC, arena_name, double_bytes, make_libs

KB = 1024
MB = 1024 * 1024


def make_enclave(epc_usable_bytes: int = 16 * MB):
    platform = SgxPlatform(seed=b"l1-cache", epc_usable_bytes=epc_usable_bytes)
    return platform, platform.create_enclave("l1-app", b"l1-app-code")


def tag(i: int) -> bytes:
    return bytes([i]) * 32


class TestLruSemantics:
    def test_hit_and_miss(self):
        _, enclave = make_enclave()
        cache = L1ResultCache(enclave, max_entries=4)
        with enclave.ecall("test"):
            assert cache.get(tag(1)) is None
            assert cache.put(tag(1), b"result-1")
            assert cache.get(tag(1)) == b"result-1"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.insertions == 1

    def test_entry_count_eviction_is_lru(self):
        _, enclave = make_enclave()
        cache = L1ResultCache(enclave, max_entries=2)
        with enclave.ecall("test"):
            cache.put(tag(1), b"one")
            cache.put(tag(2), b"two")
            cache.get(tag(1))  # refresh 1; 2 becomes the LRU victim
            cache.put(tag(3), b"three")
            assert cache.get(tag(2)) is None
            assert cache.get(tag(1)) == b"one"
            assert cache.get(tag(3)) == b"three"
        assert len(cache) == 2
        assert cache.stats.evictions == 1

    def test_byte_bound_eviction(self):
        _, enclave = make_enclave()
        footprint = 100 + ENTRY_OVERHEAD_BYTES
        cache = L1ResultCache(enclave, max_entries=100, max_bytes=2 * footprint)
        with enclave.ecall("test"):
            cache.put(tag(1), b"x" * 100)
            cache.put(tag(2), b"y" * 100)
            cache.put(tag(3), b"z" * 100)
            assert tag(1) not in cache
        assert cache.current_bytes == 2 * footprint

    def test_oversized_entry_not_cached(self):
        _, enclave = make_enclave()
        cache = L1ResultCache(enclave, max_entries=4, max_bytes=256)
        with enclave.ecall("test"):
            assert not cache.put(tag(1), b"x" * KB)
            assert cache.get(tag(1)) is None
        assert len(cache) == 0

    def test_clear_keeps_cumulative_stats(self):
        _, enclave = make_enclave()
        cache = L1ResultCache(enclave, max_entries=4)
        with enclave.ecall("test"):
            cache.put(tag(1), b"one")
            cache.clear()
            assert cache.get(tag(1)) is None
        assert cache.stats.insertions == 1
        assert cache.current_bytes == 0

    def test_invalid_bounds_rejected(self):
        _, enclave = make_enclave()
        with pytest.raises(DedupError):
            L1ResultCache(enclave, max_entries=0)
        with pytest.raises(DedupError):
            L1ResultCache(enclave, max_entries=4, max_bytes=0)


class TestEpcCharging:
    def test_access_outside_enclave_rejected(self):
        _, enclave = make_enclave()
        cache = L1ResultCache(enclave, max_entries=4)
        with pytest.raises(EnclaveError):
            cache.put(tag(1), b"data")

    def test_faulting_lookup_charges_simulated_cycles(self):
        # Fill well past the EPC so entry 0's pages have been evicted;
        # touching them again must charge paging cycles to the clock.
        platform, enclave = make_enclave(epc_usable_bytes=1 * MB)
        cache = L1ResultCache(enclave, max_entries=64)
        with enclave.ecall("test"):
            for i in range(32):
                cache.put(tag(i), bytes([i]) * (64 * KB))
            before = platform.clock.snapshot()
            cache.get(tag(0))
            assert platform.clock.since(before) > 0

    def test_oversized_working_set_pays_page_faults(self):
        # An L1 bigger than the EPC thrashes: sweeping it round-robin
        # faults on every entry once resident pages are exhausted.
        platform, enclave = make_enclave(epc_usable_bytes=1 * MB)
        cache = L1ResultCache(enclave, max_entries=64)
        with enclave.ecall("test"):
            for i in range(48):
                cache.put(tag(i), bytes([i]) * (64 * KB))
            faults_before = platform.epc.fault_count
            for i in range(48):
                cache.get(tag(i))
            assert platform.epc.fault_count - faults_before >= 48


class TestRuntimeIntegration:
    def test_repeat_tag_served_without_store_roundtrip(self):
        d = Deployment(seed=b"l1-runtime")
        app = d.create_application(
            "l1-app", make_libs(),
            RuntimeConfig(app_id="l1-app", l1_cache_entries=8),
        )
        dedup = app.deduplicable(DOUBLE_DESC)
        dedup(b"data")  # miss: computes and caches
        gets_after_first = d.store.stats.gets
        assert dedup(b"data") == double_bytes(b"data")
        assert d.store.stats.gets == gets_after_first  # no second GET
        assert app.runtime.stats.l1_hits == 1
        assert app.runtime.stats.hits == 1
        record = app.runtime.stats.records[-1]
        assert record.hit and record.l1_hit

    def test_verified_store_hit_populates_cache(self):
        d = Deployment(seed=b"l1-populate")
        app1 = d.create_application("producer", make_libs())
        app2 = d.create_application(
            "consumer", make_libs(),
            RuntimeConfig(app_id="consumer", l1_cache_entries=8),
        )
        d1 = app1.deduplicable(DOUBLE_DESC)
        d2 = app2.deduplicable(DOUBLE_DESC)
        d1(b"shared")
        app1.runtime.flush_puts()
        d2(b"shared")  # store hit -> verified -> cached
        gets = d.store.stats.gets
        d2(b"shared")  # L1 hit
        assert d.store.stats.gets == gets
        assert app2.runtime.stats.l1_hits == 1

    def test_poisoned_store_entry_never_enters_cache(self):
        # Same setup as the verification-fallback test, but with the L1
        # enabled: the poisoned bytes fail Fig. 3 verification, so they
        # must never be cached — later calls serve the *recomputed*
        # (correct) result from the L1.
        from repro.core.serialization import AnyParser, default_registry
        from repro.core.tag import derive_tag
        from repro.store.resultstore import StoreConfig

        d = Deployment(
            seed=b"l1-poisoned", store_config=StoreConfig(verify_blob_digest=False)
        )
        producer = d.create_application("producer", make_libs())
        victim = d.create_application(
            "victim", make_libs(),
            RuntimeConfig(app_id="victim", l1_cache_entries=8),
        )
        producer.deduplicable(DOUBLE_DESC)(b"data")
        producer.runtime.flush_puts()

        func_identity = victim.runtime.libraries.function_identity(DOUBLE_DESC)
        input_bytes = AnyParser(default_registry()).encode(b"data")
        poisoned_tag = derive_tag(func_identity, input_bytes)
        HostAdversary(d.platform.host).flip(arena_name(d.store, poisoned_tag))

        dedup = victim.deduplicable(DOUBLE_DESC)
        out = dedup(b"data")
        assert out == double_bytes(b"data")
        assert victim.runtime.stats.verification_failures == 1
        # The recomputed result was cached; the poisoned blob was not.
        assert dedup(b"data") == double_bytes(b"data")
        assert victim.runtime.stats.l1_hits == 1
        assert victim.runtime.stats.verification_failures == 1  # no new failure
