"""Per-(source, dest) fault counters: the regression pinning the new
edge-scoped semantics against the old global-counter behaviour."""

from repro.net.transport import FaultInjector, Network
from repro.sgx.cost_model import SimClock


def make_net(injector):
    net = Network(fault_injector=injector)
    clock = SimClock()
    a = net.endpoint("a", clock)
    b = net.endpoint("b", clock)
    c = net.endpoint("c", clock)
    return net, a, b, c


class TestEdgeScopedCounters:
    def test_each_edge_counts_independently(self):
        injector = FaultInjector()
        net, a, b, c = make_net(injector)
        a.send("b", b"x")
        a.send("b", b"x")
        a.send("c", b"x")
        assert injector._edge_counters.get(("a", "b"), 0) == 2
        assert injector._edge_counters.get(("a", "c"), 0) == 1
        assert injector._edge_counters.get(("b", "a"), 0) == 0  # direction matters

    def test_plain_int_rule_matches_nth_message_on_every_edge(self):
        injector = FaultInjector(drop_indices={0})
        net, a, b, c = make_net(injector)
        a.send("b", b"x")  # dropped: first a->b
        a.send("c", b"x")  # dropped: first a->c (own counter!)
        a.send("b", b"x")  # delivered: second a->b
        assert b.pending() == 1
        assert c.pending() == 0
        assert net.messages_dropped == 2

    def test_tuple_rule_matches_one_edge_only(self):
        injector = FaultInjector(drop_indices={("a", "b", 0)})
        net, a, b, c = make_net(injector)
        a.send("c", b"x")  # untouched: rule names a->b
        a.send("b", b"x")  # dropped
        a.send("b", b"x")  # delivered
        assert c.pending() == 1
        assert b.pending() == 1

    def test_old_global_counter_would_have_shifted_this_rule(self):
        # Under the historical single global counter, interleaving
        # unrelated traffic shifted which message a rule hit.  Pin the
        # new behaviour: the rule below targets the 2nd a->b message and
        # keeps doing so no matter how much a->c chatter interleaves.
        injector = FaultInjector(drop_indices={("a", "b", 1)})
        net, a, b, c = make_net(injector)
        a.send("b", b"first")
        for _ in range(5):  # unrelated traffic that used to shift rules
            a.send("c", b"noise")
        a.send("b", b"second")  # edge index 1: dropped
        a.send("b", b"third")
        assert [payload for _s, payload in [b.recv(), b.recv()]] == [
            b"first", b"third",
        ]
        assert c.pending() == 5

    def test_dead_address_drop_does_not_consume_rule_indices(self):
        # Messages to dead addresses still advance the edge counter
        # (the send happened), so revival picks up where traffic left off.
        injector = FaultInjector(drop_indices={("a", "b", 2)})
        net, a, b, c = make_net(injector)
        a.send("b", b"0")
        injector.kill("b")
        a.send("b", b"1")  # dropped: dead, but still edge index 1
        injector.revive("b")
        a.send("b", b"2")  # edge index 2: dropped by rule
        a.send("b", b"3")
        assert [b.recv()[1], b.recv()[1]] == [b"0", b"3"]

    def test_corrupt_rule_is_edge_scoped_too(self):
        injector = FaultInjector(corrupt_indices={("a", "c", 0)})
        net, a, b, c = make_net(injector)
        a.send("b", b"\x00\x01")
        a.send("c", b"\x00\x01")
        assert b.recv()[1] == b"\x00\x01"
        assert c.recv()[1] == b"\x00\xfe"  # last byte flipped
