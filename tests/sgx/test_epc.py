"""EPC model: faulting, LRU residency, capacity, paging costs."""

import pytest

from repro.errors import EnclaveMemoryError
from repro.sgx.cost_model import SimClock
from repro.sgx.epc import EpcManager

PAGE = 4096


def make_epc(pages: int, allow_paging=True):
    clock = SimClock()
    return EpcManager(clock, usable_bytes=pages * PAGE, allow_paging=allow_paging), clock


class TestFaulting:
    def test_first_touch_faults(self):
        epc, _ = make_epc(8)
        assert epc.access(1, "heap", 0, 100) == 1
        assert len(epc._resident) == 1

    def test_second_touch_hits(self):
        epc, _ = make_epc(8)
        epc.access(1, "heap", 0, 100)
        assert epc.access(1, "heap", 50, 40) == 0

    def test_range_spans_pages(self):
        epc, _ = make_epc(8)
        assert epc.access(1, "heap", 0, 3 * PAGE) == 3

    def test_page_straddling(self):
        epc, _ = make_epc(8)
        assert epc.access(1, "heap", PAGE - 10, 20) == 2

    def test_zero_bytes_no_fault(self):
        epc, _ = make_epc(8)
        assert epc.access(1, "heap", 0, 0) == 0

    def test_fault_charges_clock(self):
        epc, clock = make_epc(8)
        epc.access(1, "heap", 0, PAGE)
        assert clock.cycles == clock.params.page_fault_cycles

    def test_distinct_regions_distinct_pages(self):
        epc, _ = make_epc(8)
        epc.access(1, "heap", 0, 10)
        assert epc.access(1, "stack", 0, 10) == 1

    def test_distinct_enclaves_distinct_pages(self):
        epc, _ = make_epc(8)
        epc.access(1, "heap", 0, 10)
        assert epc.access(2, "heap", 0, 10) == 1


class TestEviction:
    def test_lru_eviction_order(self):
        epc, _ = make_epc(2)
        epc.access(1, "heap", 0 * PAGE, 1)      # page A
        epc.access(1, "heap", 1 * PAGE, 1)      # page B
        epc.access(1, "heap", 0 * PAGE, 1)      # A becomes MRU
        epc.access(1, "heap", 2 * PAGE, 1)      # evicts B
        assert epc.access(1, "heap", 0 * PAGE, 1) == 0   # A resident
        assert epc.access(1, "heap", 1 * PAGE, 1) == 1   # B was evicted

    def test_eviction_counter(self):
        epc, _ = make_epc(2)
        for i in range(4):
            epc.access(1, "heap", i * PAGE, 1)
        assert epc.eviction_count == 2

    def test_capacity_is_respected(self):
        epc, _ = make_epc(3)
        for i in range(10):
            epc.access(1, "heap", i * PAGE, 1)
        assert len(epc._resident) == 3

    def test_paging_disabled_raises(self):
        epc, _ = make_epc(1, allow_paging=False)
        epc.access(1, "heap", 0, 1)
        with pytest.raises(EnclaveMemoryError):
            epc.access(1, "heap", PAGE, 1)


class TestRelease:
    def test_release_enclave_frees_pages(self):
        epc, _ = make_epc(8)
        epc.access(1, "heap", 0, 2 * PAGE)
        epc.access(2, "heap", 0, PAGE)
        epc.release_enclave(1)
        assert len(epc._resident) == 1

    def test_invalid_size_rejected(self):
        with pytest.raises(EnclaveMemoryError):
            EpcManager(SimClock(), usable_bytes=0)
