"""PipelineEngine unit tests: coalescing, rounds, accounting, lanes.

These drive the engine against fake clients/clocks so every cycle is
chosen by the test — the integration suites (cluster, core, simtest)
cover the real wire path.
"""

import random
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import RuntimeConfig
from repro.engine import EngineConfig, PipelineEngine
from repro.errors import ChannelError, ProtocolError, TransportError
from repro.net.messages import GetRequest, PutRequest
from repro.simtest import SimConfig, run_scenario
from repro.simtest.runner import ENGINES
from tests.schedule_reference import Graph, capture, reference_starts, violations


class FakeClock:
    """A SimClock stand-in: advance() is the only way time moves."""

    def __init__(self):
        self.cycles = 0.0
        self.params = SimpleNamespace(cpu_freq_hz=1_000_000_000.0)

    def snapshot(self):
        return self.cycles

    def since(self, snapshot):
        return self.cycles - snapshot

    def advance(self, cycles):
        self.cycles += cycles


class GroupedFakeClient:
    """plan/submit/wait group peer with deterministic costs.

    ``shard_of`` maps a request tag to the shard clock that serves it
    (defaults to the single shard); a round's requests are planned into
    one group per shard.  Costs: submitting a group charges the app
    clock ``submit_cost``; waiting on it charges the serving shard
    ``serve_cost`` per item and the app clock ``wait_cost``.
    """

    def __init__(self, app_clock, shard_clocks, shard_of=None,
                 submit_cost=10.0, wait_cost=5.0, serve_cost=30.0):
        self.app_clock = app_clock
        self.shard_clocks = shard_clocks
        self.shard_of = shard_of or (lambda tag: next(iter(shard_clocks)))
        self.submit_cost = submit_cost
        self.wait_cost = wait_cost
        self.serve_cost = serve_cost
        self.submitted = []       # every request put on the wire, flat
        self.group_submits = []   # the same, one list per group record
        self.fail_submit = False
        self.fail_wait = False
        self.fail_group_wait = False
        self._next = 0
        self._pending = {}

    def plan_gets(self, requests):
        groups = {}
        for i, request in enumerate(requests):
            groups.setdefault(self.shard_of(request.tag), []).append(i)
        return list(groups.values())

    def submit_gets(self, requests):
        if self.fail_submit:
            raise TransportError("submit lost")
        self.submitted.extend(requests)
        self.group_submits.append(list(requests))
        self.app_clock.advance(self.submit_cost)
        handle = self._next
        self._next += 1
        self._pending[handle] = list(requests)
        return handle

    def wait_gets(self, handle, n_items):
        requests = self._pending.pop(handle)
        assert len(requests) == n_items
        if self.fail_wait:
            raise TransportError("reply lost")
        if self.fail_group_wait:
            raise ChannelError("group reply lost")
        for request in requests:
            self.shard_clocks[self.shard_of(request.tag)].advance(
                self.serve_cost
            )
        self.app_clock.advance(self.wait_cost)
        return [("response", r.tag) for r in requests]

    # -- the grouped PUT surface mirrors the GET one ----------------------
    plan_puts = plan_gets
    submit_puts = submit_gets
    wait_puts = wait_gets


def reverse(data: bytes) -> bytes:
    return data[::-1]


def get(tag: bytes) -> GetRequest:
    return GetRequest(tag=tag.ljust(32, b"\0"), app_id="engine-test")


def putreq(tag: bytes) -> PutRequest:
    return PutRequest(
        tag=tag.ljust(32, b"\0"), challenge=b"r" * 32,
        wrapped_key=b"k" * 16, sealed_result=b"blob", app_id="engine-test",
    )


def make_engine(n_shards=1, shard_of=None, **config):
    app = FakeClock()
    shards = {f"shard-{i}": FakeClock() for i in range(n_shards)}
    client = GroupedFakeClient(app, shards, shard_of=shard_of)
    engine = PipelineEngine(
        client, app, shard_clocks=shards, config=EngineConfig(**config)
    )
    return engine, client, app, shards


class TestConfig:
    def test_depth_must_be_positive(self):
        with pytest.raises(ProtocolError):
            EngineConfig(depth=0)

    @pytest.mark.parametrize("depth", ["auto", 0, -1, 8.0, 2.5, None])
    def test_a_depth_that_is_not_an_int_of_one_or_more_is_a_coded_error(self, depth):
        with pytest.raises(ProtocolError) as raised:
            EngineConfig(depth=depth)
        assert raised.value.code == "protocol_error"

    def test_workers_must_be_positive(self):
        with pytest.raises(ProtocolError):
            EngineConfig(workers=0)


class TestCoalescing:
    def test_duplicate_tags_take_one_round_trip(self):
        engine, client, _, _ = make_engine(depth=8)
        batch = engine.run_gets([get(b"a"), get(b"a"), get(b"a"), get(b"b")])
        assert len(client.submitted) == 2  # one per distinct tag
        assert batch.leader_of == {1: 0, 2: 0}
        assert batch.responses[1] is batch.responses[0]
        assert batch.responses[2] is batch.responses[0]
        assert batch.coalesced == 2
        assert engine.coalesced_total == 2

    def test_followers_cost_no_cycles(self):
        engine, _, app, shards = make_engine(depth=8)
        engine.run_gets([get(b"a")])
        single_app = app.cycles
        single_shard = shards["shard-0"].cycles
        engine2, _, app2, shards2 = make_engine(depth=8)
        engine2.run_gets([get(b"a")] * 10)
        assert app2.cycles == single_app
        assert shards2["shard-0"].cycles == single_shard

    def test_coalesce_off_sends_every_request(self):
        engine, client, _, _ = make_engine(depth=8, coalesce=False)
        batch = engine.run_gets([get(b"a")] * 3)
        assert len(client.submitted) == 3
        assert batch.leader_of == {}

    def test_non_get_messages_are_never_coalesced(self):
        engine, client, _, _ = make_engine(depth=8)
        message = SimpleNamespace(tag=b"x" * 32)  # not a GetRequest
        engine.run_gets([message, message])
        assert len(client.submitted) == 2


class TestRounds:
    def test_depth_bounds_outstanding_requests_per_round(self):
        engine, _, _, _ = make_engine(depth=2)
        engine.run_gets([get(bytes([i])) for i in range(5)])
        assert engine.rounds == 3
        assert engine.ops == 5

    def test_responses_keep_request_order(self):
        engine, _, _, _ = make_engine(depth=3)
        tags = [bytes([i]) for i in range(7)]
        batch = engine.run_gets([get(t) for t in tags])
        assert [r[1] for r in batch.responses] == [
            t.ljust(32, b"\0") for t in tags
        ]

    def test_makespan_never_exceeds_serial(self):
        engine, _, _, _ = make_engine(n_shards=3, depth=8, workers=4,
                                      shard_of=lambda tag: f"shard-{tag[0] % 3}")
        engine.run_gets([get(bytes([i])) for i in range(12)])
        assert engine.makespan_cycles <= engine.serial_cycles

    def test_depth_never_changes_what_run_gets_returns(self):
        # Depth is a schedule knob, never a semantic one: a depth-8
        # engine (coalesced duplicates, two shards) returns exactly what
        # a depth-1 engine returns.
        requests = [get(bytes([i % 5])) for i in range(17)]
        deep, _, _, _ = make_engine(n_shards=2, depth=8, shard_of=lambda tag: f"shard-{tag[0] % 2}")
        one, _, _, _ = make_engine(n_shards=2, depth=1, shard_of=lambda tag: f"shard-{tag[0] % 2}")
        got = deep.run_gets(list(requests))
        assert got.responses == one.run_gets(list(requests)).responses
        assert deep.rounds < one.rounds

    def test_depth1_workers1_degenerates_to_serial(self):
        engine, _, _, _ = make_engine(depth=1, workers=1)
        engine.run_gets([get(bytes([i])) for i in range(4)])
        assert engine.makespan_cycles == pytest.approx(engine.serial_cycles)
        assert engine.overlap_cycles_saved == pytest.approx(0.0)

    def test_colocated_store_forces_serial_accounting(self):
        # The "shard" clock IS the app clock: nothing can overlap.
        app = FakeClock()
        client = GroupedFakeClient(app, {"local": app})
        engine = PipelineEngine(
            client, app, shard_clocks={"local": app},
            config=EngineConfig(depth=8, workers=4),
        )
        engine.run_gets([get(bytes([i])) for i in range(6)])
        assert engine.makespan_cycles == pytest.approx(engine.serial_cycles)

    def test_distinct_shards_overlap(self):
        engine, _, _, _ = make_engine(
            n_shards=2, depth=2, workers=2,
            shard_of=lambda tag: f"shard-{tag[0] % 2}",
        )
        engine.run_gets([get(bytes([0])), get(bytes([1]))])
        # Serial: 2 lanes x 15 app + 2 shards x 30 = 90.  Critical path:
        # one op's own chain (15 + 30) = 45.
        assert engine.serial_cycles == pytest.approx(90.0)
        assert engine.makespan_cycles == pytest.approx(45.0)
        assert engine.overlap_cycles_saved == pytest.approx(45.0)

    def test_puts_are_never_coalesced(self):
        engine, client, _, _ = make_engine(depth=4)
        batch = engine.run_puts([get(b"a"), get(b"a")])  # message type is
        assert len(client.submitted) == 2                 # irrelevant here
        assert batch.leader_of == {}


class TestFailures:
    def test_submit_failure_surfaces_as_exception_response(self):
        engine, client, _, _ = make_engine(depth=4)
        client.fail_submit = True
        batch = engine.run_gets([get(b"a"), get(b"b")])
        assert all(isinstance(r, TransportError) for r in batch.responses)
        assert engine.failures == 2

    def test_wait_failure_surfaces_as_exception_response(self):
        engine, client, _, _ = make_engine(depth=4)
        client.fail_wait = True
        batch = engine.run_gets([get(b"a")])
        assert isinstance(batch.responses[0], TransportError)
        assert engine.failures == 1

    def test_followers_share_their_leaders_failure(self):
        engine, client, _, _ = make_engine(depth=4)
        client.fail_wait = True
        batch = engine.run_gets([get(b"a"), get(b"a")])
        assert batch.responses[1] is batch.responses[0]
        assert isinstance(batch.responses[1], TransportError)


class TestGroupedRounds:
    def test_one_submit_per_shard_group(self):
        engine, client, _, _ = make_engine(
            n_shards=2, depth=8,
            shard_of=lambda tag: f"shard-{tag[0] % 2}",
        )
        tags = [bytes([i]) for i in range(6)]
        batch = engine.run_gets([get(t) for t in tags])
        assert len(client.group_submits) == 2  # one record per shard
        assert [r[1] for r in batch.responses] == [
            t.ljust(32, b"\0") for t in tags
        ]

    def test_group_wait_failure_fails_every_item_of_the_group(self):
        engine, client, _, _ = make_engine(
            n_shards=1, depth=8
        )
        client.fail_group_wait = True
        batch = engine.run_gets([get(b"a"), get(b"b")])
        assert all(isinstance(r, ChannelError) for r in batch.responses)
        assert engine.failures == 2


class TestGroupedPutRounds:
    def test_put_round_ships_one_record_per_shard_group(self):
        engine, client, _, _ = make_engine(
            n_shards=2, depth=8,
            shard_of=lambda tag: f"shard-{tag[0] % 2}",
        )
        tags = [bytes([i]) for i in range(6)]
        batch = engine.run_puts([putreq(t) for t in tags])
        assert len(client.group_submits) == 2  # one record per shard
        assert [r[1] for r in batch.responses] == [
            t.ljust(32, b"\0") for t in tags
        ]

    def test_grouped_puts_are_never_coalesced(self):
        engine, client, _, _ = make_engine(
            n_shards=1, depth=8
        )
        batch = engine.run_puts([putreq(b"a"), putreq(b"a"), putreq(b"a")])
        submitted = sum(len(group) for group in client.group_submits)
        assert submitted == 3  # every duplicate wants its own verdict
        assert engine.coalesced_total == 0
        assert len(batch.responses) == 3

    def test_distinct_shard_put_groups_overlap(self):
        # Two shards each serving one group: the round's makespan is one
        # group's serve time, not two, plus the per-lane client work.
        engine, client, app, shards = make_engine(
            n_shards=2, depth=8, workers=2,
            shard_of=lambda tag: f"shard-{tag[0] % 2}",
        )
        t0 = app.cycles
        engine.run_puts([putreq(bytes([i])) for i in range(2)])
        elapsed = app.cycles - t0
        serial = 2 * (client.submit_cost + client.serve_cost + client.wait_cost)
        assert elapsed < serial

    def test_put_group_wait_failure_fails_every_item_of_the_group(self):
        engine, client, _, _ = make_engine(
            n_shards=1, depth=8
        )
        client.fail_group_wait = True
        batch = engine.run_puts([putreq(b"a"), putreq(b"b")])
        assert all(isinstance(r, ChannelError) for r in batch.responses)
        assert engine.failures == 2

    def test_plain_client_still_takes_the_per_op_path(self):
        engine, client, _, _ = make_engine(n_shards=1, depth=8)
        batch = engine.run_puts([putreq(b"a"), putreq(b"b")])
        assert len(client.submitted) == 2  # per-op submit(), no grouping
        assert len(batch.responses) == 2


class TestBackground:
    def test_background_work_overlaps_next_round(self):
        engine, client, app, shards = make_engine(depth=8)
        with engine.background():
            app.advance(7.0)
        engine.run_gets([get(b"a")])
        # serial = lane (15) + shard (30) + bg (7); makespan = the op's
        # chain (45) because the bg lane fits under it.
        assert engine.serial_cycles == pytest.approx(52.0)
        assert engine.makespan_cycles == pytest.approx(45.0)

    def test_settle_folds_unoverlapped_background_serially(self):
        engine, _, app, shards = make_engine(depth=8)
        with engine.background():
            app.advance(7.0)
            shards["shard-0"].advance(3.0)
        engine.settle()
        assert engine.makespan_cycles == pytest.approx(7.0)
        assert engine.serial_cycles == pytest.approx(10.0)
        engine.settle()  # idempotent
        assert engine.serial_cycles == pytest.approx(10.0)

    def test_a_shard_drain_runs_on_its_shard_before_the_batch_serves(self):
        # 1,000 cycles of drain on shard-0, then a batch of two rounds
        # served there: the shard does both serves after the drain.
        engine, client, app, shards = make_engine(depth=1, workers=1)
        with engine.background():
            shards["shard-0"].advance(1000.0)
        with pytest.MonkeyPatch.context() as patch:
            solved = capture(patch).solved
            with engine.batch():
                engine.run_gets([get(b"a"), get(b"b")])
        ((graph, starts),) = solved
        assert graph.kinds[0] == "drain" and graph.shards[0] == "shard-0"
        assert violations(graph, starts, engine.serial_cycles) == []
        assert engine.makespan_cycles >= 1000.0 + 2 * client.serve_cost
        # drain 0-1000 beside send 0-10; serve 1000-1030, receive -1035;
        # round 2 after both: send -1045, serve -1075, receive -1080.
        assert engine.makespan_cycles == graph.makespan == 1080.0
        assert engine.serial_cycles == 1000.0 + 2 * 45.0

    def test_two_drains_in_one_batch_take_turns_on_the_background_lane(self):
        engine, _, app, _ = make_engine(depth=1, workers=1)
        with engine.batch():
            with engine.background():
                app.advance(500.0)
            engine.run_gets([get(b"a")])
            with engine.background():
                app.advance(500.0)
            engine.run_gets([get(b"b")])
        # Round 2 and its drain wait for round 1's receive (45) and
        # drain (500): the drains take turns, round 2 runs beside the
        # second one.
        assert engine.makespan_cycles == 1000.0
        assert engine.serial_cycles == 1000.0 + 2 * 45.0


class TestParallelRegion:
    def test_tasks_spread_over_worker_lanes(self):
        engine, _, app, _ = make_engine(depth=8, workers=4)
        with engine.parallel_region() as region:
            for _ in range(4):
                with region.task():
                    app.advance(10.0)
        assert engine.makespan_cycles == pytest.approx(10.0)
        assert engine.serial_cycles == pytest.approx(40.0)

    def test_single_worker_region_is_serial(self):
        engine, _, app, _ = make_engine(depth=8, workers=1)
        with engine.parallel_region() as region:
            for _ in range(4):
                with region.task():
                    app.advance(10.0)
        assert engine.makespan_cycles == pytest.approx(40.0)

    def test_empty_region_charges_nothing(self):
        engine, _, _, _ = make_engine()
        with engine.parallel_region():
            pass
        assert engine.makespan_cycles == 0.0
        assert engine.serial_cycles == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        costs=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
        workers=st.integers(1, 8),
    )
    def test_makespan_is_the_busiest_list_scheduled_lane(self, costs, workers):
        # A region outside any batch is a schedule of its own: a free
        # lane takes the next task, so each task lands on the lane that
        # frees first.  Whole cycle counts keep every sum exact.
        engine, _, app, _ = make_engine(depth=8, workers=workers)
        with engine.parallel_region() as region:
            for cost in costs:
                with region.task():
                    app.advance(float(cost))
        lanes = [0] * min(workers, len(costs))
        for cost in costs:
            lanes[lanes.index(min(lanes))] += cost
        assert engine.makespan_cycles == max(lanes)
        n = len(costs)
        reference = Graph(costs, ["compute"] * n, [None] * n, [[]] * n, workers)
        assert engine.makespan_cycles == reference.makespan
        assert max(costs) <= engine.makespan_cycles <= sum(costs)
        assert engine.serial_cycles == sum(costs)
        if workers == 1:
            assert engine.makespan_cycles == sum(costs)

    def test_a_zero_cost_task_takes_no_lane_from_a_later_one(self):
        # Found items and misses interleaved: a miss's verification costs
        # nothing and must not push two verifications onto one lane.
        engine, _, app, _ = make_engine(depth=8, workers=2)
        with engine.parallel_region("verify") as region:
            for cost in [10.0, 0.0] * 4:
                with region.task():
                    app.advance(cost)
        assert engine.makespan_cycles == 20.0


class WalkClient:
    """A grouped GET peer whose items walk a generated list of owners.

    ``walks[i]`` lists the shards item ``i`` asks, one per step (its
    tag's first byte is ``i``).  A group's send charges the app clock,
    its serve that shard's clock and its receive the app clock, each
    the next of ``costs`` (cycled).  ``rounds`` logs one list per round
    (``plan_gets`` call) of ``(items, shard, send, serve, receive)``.
    ``drains[r]``, when given, is ``(app, per shard)`` cycles charged in
    ``engine.background()`` as round ``r`` is planned.
    """

    def __init__(self, app_clock, shard_clocks, walks, costs, drains=()):
        self.app_clock = app_clock
        self.shard_clocks = shard_clocks
        self.walks = walks
        self.costs = costs
        self.drains = drains
        self.engine = None
        self.step = [0] * len(walks)
        self.rounds: list[list] = []
        self._drawn = 0
        self._pending = {}

    def _cost(self) -> float:
        self._drawn += 1
        return float(self.costs[(self._drawn - 1) % len(self.costs)])

    def _owner(self, walk) -> str:
        item = walk.tag[0]
        return self.walks[item][self.step[item]]

    def plan_gets(self, walks):
        groups = {}
        for position, walk in enumerate(walks):
            groups.setdefault(self._owner(walk), []).append(position)
        if len(self.rounds) < len(self.drains) and self.drains[len(self.rounds)]:
            app, per_shard = self.drains[len(self.rounds)]
            with self.engine.background():
                self.app_clock.advance(float(app))
                for clock, cost in zip(self.shard_clocks.values(), per_shard):
                    clock.advance(float(cost))
        self.rounds.append([])
        return list(groups.values())

    def submit_gets(self, walks):
        shard = self._owner(walks[0])
        send, serve, receive = self._cost(), self._cost(), self._cost()
        self.app_clock.advance(send)
        self.rounds[-1].append(([w.tag[0] for w in walks], shard, send, serve, receive))
        self._pending[len(self._pending)] = (walks, shard, serve, receive)
        return len(self._pending) - 1

    def wait_gets(self, handle, n_items):
        walks, shard, serve, receive = self._pending[handle]
        self.shard_clocks[shard].advance(serve)
        self.app_clock.advance(receive)
        replies = []
        for walk in walks:
            item = walk.tag[0]
            self.step[item] += 1
            replies.append(walk if self.step[item] < len(self.walks[item]) else ("answer", item))
        return replies


def expected_graph(client, tag_costs, verify, compute, workers, depth) -> Graph:
    """The batch's task graph as the model states it, from the
    generated costs and the rounds the client saw.

    The window is ``depth`` slots, each remembering the receive of the
    group that held it last and when it was freed.  A group of ``k``
    items frees the oldest holding groups' slots until ``k`` are free,
    takes the never-held ones first and then the ones freed last, and
    its send waits for their last holders, the last round's drains and
    each item's tag (or, walking on, the receive that sent it on).  A
    shard serves in wire order; a drain waits for the last round."""
    graph = Graph([], [], [], [], workers, [], depth)

    def add(cost, kind, deps, shard=None):
        for column, value in zip(
            (graph.costs, graph.kinds, graph.shards, graph.deps),
            (float(cost), kind, shard, sorted(set(deps))),
        ):
            column.append(value)
        return len(graph.costs) - 1

    tags = [add(cost, "tag", []) for cost in tag_costs]
    slots = [{"holder": None, "freed": 0} for _ in range(depth)]  # "freed": None while held
    holding = []  # (the group's slots), oldest first
    freed = 0
    answered, barrier, drained, serving = {}, [], [], {}
    for number, groups in enumerate(client.rounds):
        drains = []
        if number < len(client.drains) and client.drains[number]:
            app, per_shard = client.drains[number]
            for shard, cost in [*zip(client.shard_clocks, per_shard), ("background lane", app)]:
                if cost:
                    drains.append(add(cost, "drain", barrier, shard))
        receives = []
        for items, shard, send, serve, receive in groups:
            while sum(slot["freed"] is not None for slot in slots) < len(items):
                freed += 1
                for slot in holding.pop(0):
                    slot["freed"] = freed
            free = [slot for slot in slots if slot["freed"] is not None]
            free.sort(key=lambda slot: (slot["holder"] is not None, -slot["freed"]))
            mine = free[:len(items)]
            waits = [slot["holder"] for slot in mine if slot["holder"] is not None]
            sent = add(send, "send", drained + waits + [answered.get(i, tags[i]) for i in items])
            served = [sent]
            if serve:
                served = serving[shard] = [add(serve, "serve", [sent, *serving.get(shard, [])], shard)]
            receives.append(add(receive, "receive", served))
            graph.groups.append((sent, receives[-1], len(items)))
            for slot in mine:
                slot.update(holder=receives[-1], freed=None)
            holding.append(mine)
            answered.update((i, receives[-1]) for i in items)
        barrier, drained = receives + drains, drains
    for kind, costs in (("verify", verify), ("compute", compute)):
        for item, cost in enumerate(costs):
            if cost is not None:
                add(cost, kind, [answered[item]])
    return graph


class TestBatchSchedule:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_a_batch_schedule_holds_the_model(self, data):
        workers = data.draw(st.integers(1, 8), label="workers")
        depth = data.draw(st.integers(workers, 8), label="depth")
        n = data.draw(st.integers(1, 10), label="items")
        n_shards = data.draw(st.integers(1, 3), label="shards")
        shard_ids = [f"s{k}" for k in range(n_shards)]
        items = st.lists(st.integers(0, 60), min_size=n, max_size=n)
        optional = st.lists(st.none() | st.integers(0, 60), min_size=n, max_size=n)
        walks = data.draw(st.lists(
            st.lists(st.sampled_from(shard_ids), min_size=1, max_size=3),
            min_size=n, max_size=n,
        ), label="walks")
        tag_costs = data.draw(items, label="tags")
        wire = data.draw(st.lists(st.integers(0, 60), min_size=1, max_size=12), label="wire")
        verify = data.draw(optional, label="verify")
        compute = data.draw(optional, label="compute")
        drains = data.draw(st.lists(st.none() | st.tuples(
            st.integers(0, 200),
            st.lists(st.integers(0, 200), min_size=n_shards, max_size=n_shards),
        ), max_size=4), label="drains")
        trailing = data.draw(st.tuples(
            st.integers(0, 200),
            st.lists(st.integers(0, 200), min_size=n_shards, max_size=n_shards),
        ), label="trailing drains")

        app = FakeClock()
        shards = {sid: FakeClock() for sid in shard_ids}
        client = WalkClient(app, shards, walks, wire, drains)
        engine = client.engine = PipelineEngine(
            client, app, shard_clocks=shards,
            config=EngineConfig(depth=depth, workers=workers),
        )
        with pytest.MonkeyPatch.context() as patch:
            solved = capture(patch).solved
            with engine.batch():
                with engine.parallel_region("tag") as region:
                    tags = []
                    for cost in tag_costs:
                        with region.task() as task:
                            app.advance(float(cost))
                        tags.append(task)
                answer = engine.run_gets([get(bytes([i])) for i in range(n)], after=tags)
                for kind, costs in (("verify", verify), ("compute", compute)):
                    with engine.parallel_region(kind) as region:
                        for item, cost in enumerate(costs):
                            if cost is not None:
                                with region.task(answer.ready[item]):
                                    app.advance(float(cost))
        assert engine._schedule is None  # nothing outlives the batch
        ((graph, starts),) = solved
        expected = expected_graph(client, tag_costs, verify, compute, workers, depth)
        assert (graph.costs, graph.kinds, graph.shards, graph.groups, graph.depth) == (
            expected.costs, expected.kinds, expected.shards, expected.groups, expected.depth
        )
        assert [sorted(set(d)) for d in graph.deps] == expected.deps
        assert violations(expected, starts, engine.serial_cycles) == []
        assert starts == reference_starts(expected)
        assert engine.makespan_cycles == expected.makespan
        assert engine.serial_cycles == sum(expected.costs)

        # Drains no round takes: settle solves them as a graph of their
        # own, each on its resource and none waiting, and both totals
        # grow by that graph alone.
        with engine.background():
            app.advance(float(trailing[0]))
            for clock, cost in zip(shards.values(), trailing[1]):
                clock.advance(float(cost))
        drains = [
            (float(cost), resource)
            for resource, cost in [*zip(shard_ids, trailing[1]), ("background lane", trailing[0])]
            if cost
        ]
        settled = Graph(
            [cost for cost, _ in drains], ["drain"] * len(drains),
            [resource for _, resource in drains], [[] for _ in drains],
        )
        before = engine.makespan_cycles, engine.serial_cycles
        engine.settle()
        assert engine.makespan_cycles == before[0] + settled.makespan
        assert engine.serial_cycles == before[1] + sum(settled.costs)

    def test_a_round_on_the_wire_overlaps_the_next_items_tags(self):
        # Four 20-cycle tags on two lanes, two rounds of two items on one
        # shard (send 10, serve 2 x 30, receive 5).  Round 1 may leave at
        # 20, and its send goes before tag 3: send 20-30, tags 20-40 and
        # 30-50 beside serve 30-90, receive 90-95; round 2 waits for round
        # 1: send 95-105, serve 105-165, receive 165-170.
        engine, _, app, _ = make_engine(depth=2, workers=2)
        with engine.batch():
            with engine.parallel_region("tag") as region:
                tags = []
                for _ in range(4):
                    with region.task() as task:
                        app.advance(20.0)
                    tags.append(task)
            engine.run_gets([get(bytes([i])) for i in range(4)], after=tags)
        assert engine.makespan_cycles == 170.0
        assert engine.serial_cycles == 80.0 + 2 * 75.0

    def test_a_group_waits_only_for_the_receives_that_free_its_slots(self):
        # Depth 2 on two shards, two rounds of one item per shard; each
        # group is (send, serve, receive).  Round 1: s0 10 / 100 / 5 and
        # s1 10 / 10 / 5; round 2: s0 10 / 10 / 5 and s1 10 / 100 / 5.
        # Round 2's s1 group takes the slot s1's first receive frees at
        # 25: send 25-35, serve 35-135, receive 135-140.  Its s0 group
        # waits for s0's first receive at 115: done at 140.  Lock-step,
        # both would wait for 115, and s1's serve would end at 225.
        app, shards = FakeClock(), {"s0": FakeClock(), "s1": FakeClock()}
        costs = [10, 100, 5, 10, 10, 5, 10, 10, 5, 10, 100, 5]
        client = WalkClient(app, shards, [["s0"], ["s1"], ["s0"], ["s1"]], costs)
        engine = client.engine = PipelineEngine(
            client, app, shard_clocks=shards, config=EngineConfig(depth=2, workers=2),
        )
        engine.run_gets([get(bytes([i])) for i in range(4)])
        assert engine.makespan_cycles == 140.0
        assert engine.serial_cycles == sum(costs)

    def test_walkers_fill_the_last_partial_round_of_first_steps(self, monkeypatch):
        # Depth 4, six items: 0-3 ask s0 and then s1, 4 and 5 only s0.
        # The first steps fill a round of four and leave one of two;
        # walkers 0 and 1 fill that round, and 2 and 3 take a third.
        app, shards = FakeClock(), {"s0": FakeClock(), "s1": FakeClock()}
        client = WalkClient(app, shards, [["s0", "s1"]] * 4 + [["s0"]] * 2, [10, 30, 5])
        engine = client.engine = PipelineEngine(
            client, app, shard_clocks=shards, config=EngineConfig(depth=4, workers=2),
        )
        solved = capture(monkeypatch).solved
        batch = engine.run_gets([get(bytes([i])) for i in range(6)])
        assert batch.responses == [("answer", i) for i in range(6)]
        assert [sorted(i for items, *_ in groups for i in items) for groups in client.rounds] == [
            [0, 1, 2, 3], [0, 1, 4, 5], [2, 3],
        ]
        # Each walker's send waits for the receive that sent it on.
        ((graph, _),) = solved
        wire = [items for groups in client.rounds for items, *_ in groups]
        sent_on: dict[int, int] = {}
        for (send, receive, _), items in zip(graph.groups, wire, strict=True):
            for item in items:
                if item in sent_on:
                    assert sent_on[item] in graph.deps[send]
                sent_on[item] = receive
        assert batch.ready == [sent_on[i] for i in range(6)]

    def test_an_exchange_ocall_is_two_lane_tasks_around_its_rounds(self, monkeypatch):
        # The enter (7 cycles) goes before every send; the exit (3) after
        # every receive, and only the batch's end waits for it.  A PUT
        # exchange's enter waits for every task before it.
        engine, _, app, _ = make_engine(
            n_shards=2, depth=2, workers=2, shard_of=lambda tag: f"shard-{tag[0] % 2}",
        )
        solved = capture(monkeypatch).solved

        @contextmanager
        def ocall():
            app.advance(7.0)
            yield
            app.advance(3.0)

        with engine.batch():
            engine.run_gets([get(bytes([i])) for i in range(4)], ocall=ocall())
            engine.run_puts([putreq(bytes([i])) for i in range(2)], ocall=ocall())
        ((graph, starts),) = solved
        gets_in, gets_out, puts_in, puts_out = [
            task for task, kind in enumerate(graph.kinds) if kind == "ocall"
        ]
        assert [graph.costs[t] for t in (gets_in, gets_out, puts_in, puts_out)] == [7, 3, 7, 3]
        assert graph.shards[gets_in] is graph.shards[gets_out] is None
        get_groups = [group for group in graph.groups if group[0] < gets_out]
        assert len(get_groups) == 4
        assert all(starts[send] >= starts[gets_in] + 7.0 for send, _, _ in get_groups)
        assert sorted(graph.deps[gets_out]) == sorted(receive for _, receive, _ in get_groups)
        assert sorted(graph.deps[puts_in]) == list(range(puts_in))
        waiting = [t for t, deps in enumerate(graph.deps) if {gets_out, puts_out} & set(deps)]
        assert waiting == [puts_in]  # the fence, and nothing else
        assert violations(graph, starts, engine.serial_cycles) == []
        assert engine.makespan_cycles == graph.makespan
        assert engine.serial_cycles == 2 * 10.0 + 6 * 45.0

    def test_a_colocated_store_keeps_a_round_serial_inside_a_batch(self):
        app = FakeClock()
        client = GroupedFakeClient(
            app, {"a": app, "b": app}, shard_of=lambda tag: "ab"[tag[0] % 2]
        )
        engine = PipelineEngine(
            client, app, shard_clocks={"a": app, "b": app},
            config=EngineConfig(depth=8, workers=4),
        )
        with engine.batch():
            engine.run_gets([get(bytes([i])) for i in range(6)])
        assert engine.makespan_cycles == engine.serial_cycles == 2 * 15.0 + 6 * 30.0
        # A drain takes the background lane beside the next round, on
        # the one machine too: the round fits under it.
        with engine.background():
            app.advance(500.0)
        engine.run_gets([get(b"x")])
        assert engine.makespan_cycles == 210.0 + 500.0

    def test_a_put_round_waits_for_every_task_before_it(self):
        engine, _, app, _ = make_engine(depth=8, workers=4)
        with engine.batch():
            with engine.parallel_region("compute") as region:
                with region.task():
                    app.advance(100.0)
            engine.run_puts([putreq(b"a")])
        assert engine.makespan_cycles == 100.0 + 45.0

    def test_a_call_outside_a_batch_accounts_as_the_same_call_inside_one(self):
        # Every entry is a batch: one called on its own opens a batch of
        # one, so it solves the same schedule (drain included) and fills
        # the same ready tasks as inside engine.batch().
        def run(entry, batched):
            engine, _, app, _ = make_engine(
                n_shards=2, depth=2, workers=2, shard_of=lambda tag: f"shard-{tag[0] % 2}",
            )
            with engine.background():
                app.advance(7.0)
            with engine.batch() if batched else nullcontext():
                if entry == "gets":
                    ready = engine.run_gets([get(bytes([i % 4])) for i in range(6)]).ready
                elif entry == "puts":
                    ready = engine.run_puts([putreq(bytes([i])) for i in range(5)]).ready
                else:
                    ready = []
                    with engine.parallel_region() as region:
                        for cost in (10.0, 20.0, 30.0):
                            with region.task() as task:
                                app.advance(cost)
                            ready.append(task)
            return engine.makespan_cycles, engine.serial_cycles, ready

        for entry in ("gets", "puts", "region"):
            outside = run(entry, batched=False)
            assert outside == run(entry, batched=True)
            assert outside[0] > 0.0 and None not in outside[2]

    def test_a_batch_inside_a_batch_joins_it(self):
        engine, _, app, _ = make_engine(depth=8, workers=2)
        with engine.batch():
            with engine.batch():
                with engine.parallel_region() as region:
                    with region.task():
                        app.advance(10.0)
            assert engine.makespan_cycles == 0.0  # solved once, at the end
            with engine.parallel_region() as region:
                with region.task():
                    app.advance(10.0)
        assert engine.makespan_cycles == 10.0


class TestSolvedGraphs:
    def test_the_pipelined_simtest_seeds_solve_valid_graphs(self, monkeypatch):
        # The pinned seeds whose engine is depth 8 or 16 (seed % 3 != 0):
        # kills, timeouts, replica walks and migration windows.  Each
        # batch the engine solved is a valid schedule of its graph.
        solved = capture(monkeypatch).solved
        for seed in (1, 2, 4, 5, 7, 8, 10, 11, 13, 14):
            first = len(solved)
            result = run_scenario(SimConfig(seed=seed, steps=25))
            assert result.ok
            bound = ENGINES[result.config.engine]
            assert all(graph.depth <= bound for graph, _ in solved[first:])
        assert any(graph.groups for graph, _ in solved)
        for graph, starts in solved:
            assert violations(graph, starts, sum(graph.costs)) == []


class TestNothingSerialButTheEcall:
    @pytest.mark.parametrize("async_put", [True, False])
    def test_every_cycle_but_the_ecall_is_a_schedule_task(self, async_put):
        # A pipelined 4-shard, 2-replica session: a batch of hits and
        # misses (the misses walk to their second owner), its PUTs sent
        # in the batch or queued and flushed, the drains settled.  Every
        # cycle any machine charged is a task of some schedule but the
        # ECALL's enter and exit: each exchange's OCALL is two lane
        # tasks, and the flusher's send and acks are the background
        # lane's.
        session = repro.connect(
            shards=4, replication_factor=2, seed=b"serial-remainder", tracing=False,
        )
        kernel = session.mark(version="1.0", native_cost=lambda data: 3e-5)(reverse)
        rng = random.Random(5)
        warm = [rng.randbytes(1024) for _ in range(12)]
        session.execute_many(kernel.description, warm)
        session.flush_puts()
        reader = session.sibling("reader", runtime_config=RuntimeConfig(
            app_id="reader", async_put=async_put,
        ))
        engine = reader.enable_pipeline(depth=8, workers=4)
        reader.deduplicable(kernel.description)  # its one-off ECALL, before the count
        clocks = [reader.clock, *(n.platform.clock for n in session.cluster.shards.values())]
        cycles0, serial0 = sum(c.cycles for c in clocks), engine.serial_cycles
        results = reader.execute_many_results(
            kernel.description, warm[:10] + [rng.randbytes(1024) for _ in range(6)],
        )
        assert [r.source for r in results].count("computed") == 6
        assert reader.flush_puts() == (6 if async_put else 0)
        engine.settle()
        assert reader.runtime.stats.puts_accepted == 6  # the acks were drained
        outside = sum(c.cycles for c in clocks) - cycles0 - (engine.serial_cycles - serial0)
        assert outside == pytest.approx(2 * reader.clock.params.ecall_cycles, abs=1e-6)


class TestDeclaredComputeAccounting:
    def test_declared_compute_accounts_to_the_same_bits(self):
        # Compute is charged at the marked function's declared cost, a
        # pure function of its input, so the engine reads one clock total
        # and the same work accounts to the same bits on every run,
        # wherever the charge lands: in a region task, in the background,
        # or between rounds ahead of a settle.
        from repro.sgx.cost_model import SimClock

        def accounted(compute_seconds):
            app, shard = SimClock(), SimClock()
            engine = PipelineEngine(
                GroupedFakeClient(app, {"shard-0": shard}), app, {"shard-0": shard},
                config=EngineConfig(depth=8, workers=2),
            )
            totals = []
            for step in range(50):
                app.charge_compute(compute_seconds * (step + 1))
                with engine.parallel_region() as region:
                    for _ in range(3):
                        with region.task():
                            app.charge_compute(compute_seconds)
                            app.charge_aead_encrypt(1021)   # 4.7 cycles/byte
                with engine.background():
                    app.charge_compute(compute_seconds)
                    app.charge_network(333)                 # 1.2 cycles/byte
                    shard.charge_aead_decrypt(777)          # 0.65 cycles/byte
                engine.settle()
                totals.append((engine.makespan_cycles, engine.serial_cycles))
            return totals

        declared = accounted(1.234567e-6)
        assert declared == accounted(1.234567e-6)
        # ... and it is on the clock: every round costs more than without it.
        assert all(a > b for a, b in zip(declared, accounted(0.0)))


class TestSnapshot:
    def test_snapshot_uses_canonical_engine_keys(self):
        engine, _, _, _ = make_engine(depth=4, workers=2)
        engine.run_gets([get(b"a"), get(b"a")])
        snap = engine.snapshot()
        assert snap["engine.depth"] == 4
        assert snap["engine.workers"] == 2
        assert snap["engine.rounds"] == 1
        assert snap["engine.ops"] == 1  # the coalesced follower never ran
        assert snap["engine.coalesced_gets"] == 1
        assert snap["engine.sim_seconds_total"] > 0.0

    def test_reset_accounting_clears_counters(self):
        engine, _, _, _ = make_engine()
        engine.run_gets([get(b"a")])
        engine.reset_accounting()
        assert engine.makespan_cycles == 0.0
        assert engine.rounds == 0
        assert engine.ops == 0


class TestWorkerClamp:
    def test_workers_clamped_to_static_depth(self):
        # Lanes beyond the submit window can never hold an op; the
        # config normalizes workers down so the batch schedule never
        # counts lanes no round can fill.
        config = EngineConfig(depth=2, workers=8)
        assert config.workers == 2

    def test_workers_within_depth_untouched(self):
        assert EngineConfig(depth=8, workers=3).workers == 3
