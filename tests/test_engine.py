"""PipelineEngine unit tests: coalescing, rounds, accounting, lanes.

These drive the engine against fake clients/clocks so every cycle is
chosen by the test — the integration suites (cluster, core, simtest)
cover the real wire path.
"""

from types import SimpleNamespace

import pytest

from repro.engine import EngineBatch, EngineConfig, PipelineEngine
from repro.errors import ChannelError, ProtocolError, TransportError
from repro.net.messages import GetRequest, PutRequest


class FakeClock:
    """A SimClock stand-in: advance() is the only way time moves."""

    def __init__(self):
        self.cycles = 0.0
        self.params = SimpleNamespace(cpu_freq_hz=1_000_000_000.0)

    def snapshot(self):
        return self.cycles

    def since(self, snapshot):
        return self.cycles - snapshot

    @property
    def modelled_cycles(self):
        return self.cycles  # the fake charges no host-timed compute

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


class TestDeltasIgnoreHostTimedCompute:
    def test_accounting_is_exact_whatever_compute_was_charged_before(self):
        # charge_compute charges *measured* host time, different on every
        # run.  The engine's deltas must not inherit its rounding: they
        # come off SimClock.modelled_cycles, so the same modelled work
        # accounts to the same bits after any amount of compute.
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
                            app.charge_aead_encrypt(1021)   # 4.7 cycles/byte
                with engine.background():
                    app.charge_network(333)                 # 1.2 cycles/byte
                    shard.charge_aead_decrypt(777)          # 0.65 cycles/byte
                engine.settle()
                totals.append((engine.makespan_cycles, engine.serial_cycles))
            assert app.cycles >= app.modelled_cycles > 0
            return totals

        assert accounted(1.234567e-3) == accounted(9.87654321e-2) == accounted(0.0)


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
        # config normalizes workers down so accounting (engine.py
        # _lanes) never divides over idle lanes.
        config = EngineConfig(depth=2, workers=8)
        assert config.workers == 2

    def test_workers_clamped_to_max_depth_when_adaptive(self):
        config = EngineConfig(depth="auto", workers=64, max_depth=16)
        assert config.workers == 16

    def test_workers_within_depth_untouched(self):
        assert EngineConfig(depth=8, workers=3).workers == 3

    def test_lane_count_pins_clamped_workers(self):
        engine, _, _, shards = make_engine(n_shards=2, depth=2, workers=8)
        remote = {sid: c for sid, c in shards.items()}
        assert engine._lanes(remote) == 2
        # An explicit narrower round narrows the lanes with it.
        assert engine._lanes(remote, depth=1) == 1
        # No remote machine: nothing to overlap with, one serial lane.
        assert engine._lanes({}) == 1


class TestAdaptiveEngine:
    def test_auto_depth_starts_at_min_and_grows(self):
        engine, client, _, _ = make_engine(
            n_shards=2, depth="auto", min_depth=1, max_depth=8,
            shard_of=lambda tag: f"shard-{tag[0] % 2}",
        )
        assert engine.depth_current == 1
        tags = [get(bytes([i])) for i in range(16)]
        engine.run_gets(tags)
        # Slow-start over full rounds: 1 -> 2 -> 4 -> 8 within one batch.
        assert engine.depth_current > 1
        assert engine.controller.grows >= 2

    def test_adaptive_rounds_reread_depth_mid_batch(self):
        engine, client, _, _ = make_engine(
            n_shards=2, depth="auto", min_depth=1, max_depth=4,
            shard_of=lambda tag: f"shard-{tag[0] % 2}",
        )
        engine.run_gets([get(bytes([i])) for i in range(8)])
        # Rounds were sized 1, 2, 4, 1(tail): more rounds than a static
        # depth-4 engine (2), fewer than depth-1 (8).
        assert 2 < engine.rounds < 8

    def test_backpressure_shrinks_next_round(self):
        engine, client, _, _ = make_engine(
            n_shards=2, depth="auto", min_depth=1, max_depth=8,
            shard_of=lambda tag: f"shard-{tag[0] % 2}",
        )
        engine.run_gets([get(bytes([i])) for i in range(15)])  # grow to 8
        depth_before = engine.controller.depth
        engine.note_backpressure()
        engine.run_gets([get(bytes([i])) for i in range(depth_before)])
        assert engine.controller.log[-1][2] == "backpressure"
        assert engine.controller.depth == max(1, depth_before // 2)

    def test_migration_caps_depth_and_yields_slots(self):
        engine, client, _, _ = make_engine(
            n_shards=2, depth="auto", min_depth=1, max_depth=32,
            shard_of=lambda tag: f"shard-{tag[0] % 2}",
        )
        engine.run_gets([get(bytes([i])) for i in range(64)])  # grow past 8
        assert engine.controller.round_depth(False) > 8
        assert engine.background_budget() == 1
        client.in_transition = True  # dual-ownership window opens
        cap = engine.controller.migration_cap
        assert engine.depth_current == cap
        engine.run_gets([get(bytes([i])) for i in range(2 * cap)])
        assert engine.controller.migration_capped > 0
        assert engine.background_budget() == 1 + engine.controller.yielded_slots
        assert engine.controller.yielded_slots > 0
        client.in_transition = False  # window closes: full depth returns
        assert engine.depth_current > cap

    def test_background_budget_widens_with_destination_parallelism(self):
        # A planned window streaming to N distinct gaining shards gets N
        # background lanes — transfers to distinct machines overlap each
        # other, not just the foreground.
        engine, client, _, _ = make_engine(
            n_shards=2, depth="auto", min_depth=1, max_depth=32,
            shard_of=lambda tag: f"shard-{tag[0] % 2}",
        )
        assert engine.background_budget() == 1
        assert engine.background_budget(parallelism=4) == 4
        assert engine.background_budget(parallelism=0) == 1  # floored
        client.in_transition = True
        cap = engine.controller.migration_cap
        engine.run_gets([get(bytes([i])) for i in range(2 * cap)])
        yielded = engine.controller.yielded_slots
        assert engine.background_budget(parallelism=4) == 4 + yielded

    def test_failed_round_shrinks(self):
        engine, client, _, _ = make_engine(
            n_shards=2, depth="auto", min_depth=1, max_depth=8,
            shard_of=lambda tag: f"shard-{tag[0] % 2}",
        )
        engine.run_gets([get(bytes([i])) for i in range(15)])
        depth_before = engine.controller.depth
        client.fail_wait = True
        engine.run_gets([get(bytes([i])) for i in range(depth_before)])
        client.fail_wait = False
        assert engine.controller.log[-1][2] == "failures"
        assert engine.controller.depth == max(1, depth_before // 2)

    def test_snapshot_reports_adaptive_metrics(self):
        engine, _, _, _ = make_engine(
            n_shards=2, depth="auto", min_depth=1, max_depth=8,
            shard_of=lambda tag: f"shard-{tag[0] % 2}",
        )
        engine.run_gets([get(bytes([i])) for i in range(8)])
        snap = engine.snapshot()
        assert snap["engine.depth"] == "auto"
        assert snap["engine.depth_current"] == engine.controller.depth
        assert snap["engine.depth_decisions"] == engine.controller.decisions
        assert snap["engine.depth_changes"] == engine.controller.changes
        assert snap["engine.depth_grows"] == engine.controller.grows
        assert snap["engine.depth_shrinks"] == engine.controller.shrinks
        assert snap["engine.depth_migration_caps"] == 0

    def test_static_engine_snapshot_zeroes_adaptive_metrics(self):
        engine, _, _, _ = make_engine(depth=4)
        engine.run_gets([get(b"a")])
        snap = engine.snapshot()
        assert snap["engine.depth_decisions"] == 0
        assert snap["engine.depth_changes"] == 0

    def test_depth_decision_events_traced(self):
        from repro.obs.tracer import Tracer, find_spans

        app = FakeClock()
        shards = {"shard-0": FakeClock(), "shard-1": FakeClock()}
        client = GroupedFakeClient(app, shards, shard_of=lambda tag: f"shard-{tag[0] % 2}")
        tracer = Tracer()
        engine = PipelineEngine(
            client, app, shard_clocks=shards, tracer=tracer,
            config=EngineConfig(depth="auto", min_depth=1, max_depth=4),
        )
        engine.run_gets([get(bytes([i])) for i in range(6)])
        events = find_spans(tracer.spans(), "engine.depth_decision")
        assert len(events) == engine.controller.decisions
        first = events[0].attrs
        assert first["prev"] == 1 and first["depth"] == 2
        assert first["reason"] == "grow"
        assert {"ops", "failures", "backpressure", "migration"} <= set(first)

    def test_adaptive_identity_run_gets(self):
        # Depth is a schedule knob, never a semantic one: the adaptive
        # engine returns exactly what a depth-1 engine returns.
        requests = [get(bytes([i % 5])) for i in range(17)]
        auto, _, _, _ = make_engine(
            n_shards=2, depth="auto", min_depth=1, max_depth=8,
            shard_of=lambda tag: f"shard-{tag[0] % 2}",
        )
        one, _, _, _ = make_engine(
            n_shards=2, depth=1,
            shard_of=lambda tag: f"shard-{tag[0] % 2}",
        )
        got = auto.run_gets(list(requests))
        want = one.run_gets(list(requests))
        assert got.responses == want.responses
