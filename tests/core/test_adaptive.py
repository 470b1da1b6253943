"""Adaptive deduplication strategy (the paper's §VII future work)."""

import pytest

from repro import RuntimeConfig
from repro.core.adaptive import AdaptiveDedupPolicy
from repro.deployment import Deployment
from tests.conftest import DOUBLE_DESC, make_libs


class TestPolicyUnit:
    FUNC = b"\x01" * 32

    def test_starts_enabled(self):
        policy = AdaptiveDedupPolicy()
        assert policy.should_attempt_dedup(self.FUNC)

    def test_needs_min_observations_before_deciding(self):
        policy = AdaptiveDedupPolicy(min_observations=10)
        for _ in range(5):
            # Terrible economics: lookups cost 10x the compute.
            policy.observe_miss(self.FUNC, sim_seconds=1.0, compute_seconds=0.1)
        assert policy.should_attempt_dedup(self.FUNC)

    def test_disables_unprofitable_function(self):
        policy = AdaptiveDedupPolicy(min_observations=4)
        for _ in range(6):
            policy.observe_miss(self.FUNC, sim_seconds=1.0, compute_seconds=0.1)
        assert not policy.profile(self.FUNC).dedup_enabled

    def test_keeps_profitable_function_enabled(self):
        policy = AdaptiveDedupPolicy(min_observations=4)
        for _ in range(3):
            policy.observe_miss(self.FUNC, sim_seconds=1.05, compute_seconds=1.0)
        for _ in range(6):
            policy.observe_hit(self.FUNC, sim_seconds=0.01)
        assert policy.profile(self.FUNC).dedup_enabled

    def test_probing_while_suppressed(self):
        policy = AdaptiveDedupPolicy(min_observations=2, probe_interval=4)
        for _ in range(4):
            policy.observe_miss(self.FUNC, sim_seconds=1.0, compute_seconds=0.01)
        assert not policy.profile(self.FUNC).dedup_enabled
        decisions = [policy.should_attempt_dedup(self.FUNC) for _ in range(8)]
        assert decisions.count(True) == 2  # every 4th call probes

    def test_reenables_when_hits_arrive(self):
        policy = AdaptiveDedupPolicy(min_observations=2, probe_interval=2)
        for _ in range(4):
            policy.observe_miss(self.FUNC, sim_seconds=1.0, compute_seconds=0.5)
        assert not policy.profile(self.FUNC).dedup_enabled
        # The workload turns repetitive: probes now hit very cheaply.
        for _ in range(10):
            policy.observe_hit(self.FUNC, sim_seconds=0.01)
        assert policy.profile(self.FUNC).dedup_enabled

    def test_functions_profiled_independently(self):
        policy = AdaptiveDedupPolicy(min_observations=2)
        other = b"\x02" * 32
        for _ in range(4):
            policy.observe_miss(self.FUNC, sim_seconds=1.0, compute_seconds=0.01)
            policy.observe_hit(other, sim_seconds=0.001)
        assert not policy.profile(self.FUNC).dedup_enabled
        assert policy.profile(other).dedup_enabled


class TestRuntimeIntegration:
    def _app(self, policy):
        d = Deployment(seed=b"adaptive")
        return d, d.create_application(
            "adaptive-app",
            make_libs(),
            RuntimeConfig(app_id="adaptive-app", adaptive=policy),
        )

    def test_unprofitable_workload_stops_querying_the_store(self):
        policy = AdaptiveDedupPolicy(min_observations=4, probe_interval=100)
        d, app = self._app(policy)
        dedup = app.deduplicable(DOUBLE_DESC)
        # All-unique inputs on a trivially cheap function: dedup never
        # pays.  (double() costs ~nothing; the GET path costs real sim
        # time.)
        for i in range(30):
            dedup(b"unique-%d" % i)
        gets_seen = d.store.stats.gets
        assert gets_seen < 30  # suppression kicked in mid-stream
        func_identity = app.runtime.libraries.function_identity(DOUBLE_DESC)
        assert not policy.profile(func_identity).dedup_enabled

    def test_results_remain_correct_under_suppression(self):
        from tests.conftest import double_bytes

        policy = AdaptiveDedupPolicy(min_observations=2, probe_interval=50)
        _, app = self._app(policy)
        dedup = app.deduplicable(DOUBLE_DESC)
        for i in range(20):
            assert dedup(b"input-%d" % i) == double_bytes(b"input-%d" % i)

    def test_adaptive_none_is_always_on(self):
        d, app = self._app(None)
        dedup = app.deduplicable(DOUBLE_DESC)
        for i in range(10):
            dedup(b"unique-%d" % i)
        assert d.store.stats.gets == 10
