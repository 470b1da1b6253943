"""DoS quota manager: byte/entry/rate limits and release accounting."""

import pytest

from repro.errors import QuotaExceededError
from repro.sgx.cost_model import CostParams, SimClock
from repro.store.quota import QuotaManager, QuotaPolicy
from tests.conftest import quota_usage


@pytest.fixture
def clock():
    return SimClock(CostParams(cpu_freq_hz=1e9))


class TestByteAndEntryLimits:
    def test_byte_quota_enforced(self, clock):
        mgr = QuotaManager(QuotaPolicy(max_bytes_per_app=100), clock)
        mgr.admit_put("a", 60)
        with pytest.raises(QuotaExceededError):
            mgr.admit_put("a", 50)
        assert mgr.rejections == 1

    def test_entry_quota_enforced(self, clock):
        mgr = QuotaManager(QuotaPolicy(max_entries_per_app=2), clock)
        mgr.admit_put("a", 1)
        mgr.admit_put("a", 1)
        with pytest.raises(QuotaExceededError):
            mgr.admit_put("a", 1)

    def test_apps_isolated(self, clock):
        mgr = QuotaManager(QuotaPolicy(max_bytes_per_app=100), clock)
        mgr.admit_put("a", 100)
        mgr.admit_put("b", 100)  # b has its own budget

    def test_release_credits_back(self, clock):
        mgr = QuotaManager(QuotaPolicy(max_bytes_per_app=100), clock)
        mgr.admit_put("a", 100)
        mgr.release("a", 100)
        mgr.admit_put("a", 100)

    def test_usage_reporting(self, clock):
        mgr = QuotaManager(QuotaPolicy(), clock)
        mgr.admit_put("a", 42)
        assert quota_usage(mgr, "a") == (42, 1)


class TestRateLimit:
    def test_burst_exhaustion(self, clock):
        mgr = QuotaManager(QuotaPolicy(puts_per_second=1.0, burst=3), clock)
        for _ in range(3):
            mgr.admit_put("a", 1)
        with pytest.raises(QuotaExceededError):
            mgr.admit_put("a", 1)

    def test_tokens_refill_with_simulated_time(self, clock):
        mgr = QuotaManager(QuotaPolicy(puts_per_second=1.0, burst=1), clock)
        mgr.admit_put("a", 1)
        with pytest.raises(QuotaExceededError):
            mgr.admit_put("a", 1)
        clock.charge_seconds(2.0)  # simulated time passes
        mgr.admit_put("a", 1)

    def test_unlimited_rate_never_blocks(self, clock):
        mgr = QuotaManager(QuotaPolicy(), clock)
        for _ in range(1000):
            mgr.admit_put("a", 0)
