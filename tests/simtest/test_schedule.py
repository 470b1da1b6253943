"""FaultPlan: stateless decisions, partitions, slow links."""

from repro.net.transport import DELIVER, FaultDecision, FaultInjector
from repro.simtest.schedule import FaultPlan


class TestStatelessDecisions:
    def test_same_coordinates_same_decision(self):
        plan = FaultPlan(seed=5, drop_rate=0.3, duplicate_rate=0.3,
                         delay_rate=0.3, corrupt_rate=0.3)
        for index in range(50):
            first = plan.decide("a", "b", index, 100)
            again = plan.decide("a", "b", index, 100)
            assert first == again

    def test_decisions_independent_of_evaluation_order(self):
        plan = FaultPlan(seed=5, drop_rate=0.5)
        forward = [plan.decide("a", "b", i, 1) for i in range(20)]
        fresh = FaultPlan(seed=5, drop_rate=0.5)
        backward = [fresh.decide("a", "b", i, 1) for i in reversed(range(20))]
        assert forward == list(reversed(backward))

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, drop_rate=0.5)
        b = FaultPlan(seed=2, drop_rate=0.5)
        decisions_a = [a.decide("x", "y", i, 1).drop for i in range(64)]
        decisions_b = [b.decide("x", "y", i, 1).drop for i in range(64)]
        assert decisions_a != decisions_b

    def test_zero_rates_always_deliver(self):
        plan = FaultPlan(seed=9)
        for index in range(100):
            assert plan.decide("a", "b", index, 10) is DELIVER

    def test_rates_are_roughly_honoured(self):
        plan = FaultPlan(seed=3, drop_rate=0.5)
        drops = sum(plan.decide("a", "b", i, 1).drop for i in range(400))
        assert 120 <= drops <= 280  # ~200 expected, generous bounds

    def test_delay_bounded_by_max_delay(self):
        plan = FaultPlan(seed=4, delay_rate=1.0, max_delay=3)
        for index in range(100):
            decision = plan.decide("a", "b", index, 1)
            assert 1 <= decision.delay <= 3


class TestTopologyFaults:
    def test_blocked_edge_drops_everything(self):
        plan = FaultPlan(seed=1)
        plan.block("a", "b")
        assert plan.decide("a", "b", 0, 1).drop
        assert not plan.decide("b", "a", 0, 1).drop  # directional

    def test_slow_address_delays_both_directions(self):
        plan = FaultPlan(seed=1)
        plan.set_slow("s", 2)
        assert plan.decide("a", "s", 0, 1).delay == 2
        assert plan.decide("s", "a", 0, 1).delay == 2
        assert plan.decide("a", "b", 0, 1) is DELIVER

    def test_heal_clears_partitions_and_slow(self):
        plan = FaultPlan(seed=1)
        plan.block("a", "b")
        plan.set_slow("s", 3)
        plan.heal()
        assert plan.decide("a", "b", 0, 1) is DELIVER
        assert plan.decide("a", "s", 0, 1) is DELIVER

    def test_set_slow_zero_clears_one_address(self):
        plan = FaultPlan(seed=1)
        plan.set_slow("s", 2)
        plan.set_slow("s", 0)
        assert plan.decide("a", "s", 0, 1) is DELIVER


class TestInjectorIntegration:
    def test_plan_plugs_into_injector(self):
        injector = FaultInjector(plan=FaultPlan(seed=1, drop_rate=1.0))
        assert injector.decide(b"x", source="a", dest="b").drop

    def test_plan_merges_with_index_rules(self):
        plan = FaultPlan(seed=1, delay_rate=1.0, max_delay=1)
        injector = FaultInjector(corrupt_indices={0}, plan=plan)
        decision = injector.decide(b"x", source="a", dest="b")
        assert decision == FaultDecision(corrupt=True, delay=1)
