"""Stage 3 (compute + protect) on the enclave worker lanes.

A mix2k-shaped batch — store hits, equal-size misses and one in-batch
duplicate of a miss — runs behind the pipelined engine at ``workers=1``
and at ``workers=4``.  The duplicate is a coalesced follower with
single-flight on and an L1 re-probe hit with it off; neither takes a
stage-3 task.  Only the engine's critical-path accounting may move:
every clock charge is the same, and the makespan drops by exactly what
the lanes save, region by region.
"""

import math
import random
from contextlib import contextmanager

import pytest

import repro
from repro import RuntimeConfig

COMPUTE_SECONDS = 3e-5
INPUT_BYTES = 2048
N_WARM, N_NOVEL = 6, 5


def reverse(data: bytes) -> bytes:
    return data[::-1]


class Recorder:
    """Records each lane region's task costs and each background drain's
    app-clock cycles, and the order they happened in."""

    def __init__(self, engine, monkeypatch):
        self.regions: list[list[float]] = []
        self.events: list[str] = []
        self.drain_cycles = 0.0
        open_region, open_background = engine.parallel_region, engine.background

        @contextmanager
        def region():
            self.events.append("open")
            with open_region() as lanes:
                yield lanes
            self.regions.append(list(lanes._costs))
            self.events.append("close")

        @contextmanager
        def background():
            self.events.append("drain")
            app0 = engine.clock.cycles
            with open_background():
                yield
            self.drain_cycles += engine.clock.cycles - app0

        monkeypatch.setattr(engine, "parallel_region", region)
        monkeypatch.setattr(engine, "background", background)


def run_batch(monkeypatch, workers, coalesce=True, shards=1, replicas=1, **runtime):
    """One batch on a fresh deployment; returns what the tests read."""
    session = repro.connect(
        shards=shards, replication_factor=replicas, seed=b"stage3-lanes", tracing=False,
    )
    kernel = session.mark(version="1.0", native_cost=lambda data: COMPUTE_SECONDS)(reverse)
    rng = random.Random(3)
    warm = [rng.randbytes(INPUT_BYTES) for _ in range(N_WARM)]
    novel = [rng.randbytes(INPUT_BYTES) for _ in range(N_NOVEL)]
    session.execute_many(kernel.description, warm)
    session.flush_puts()
    reader = session.sibling("reader", runtime_config=RuntimeConfig(
        app_id="reader", l1_cache_entries=16, **runtime,
    ))
    engine = reader.enable_pipeline(depth=8, workers=workers, coalesce=coalesce)
    recorder = Recorder(engine, monkeypatch)
    clocks = {"app": reader.clock} | {
        sid: node.platform.clock for sid, node in session.cluster.shards.items()
    }
    before = {name: clock.cycles for name, clock in clocks.items()}
    batch = warm[:3] + novel[:2] + warm[3:] + novel[2:] + novel[:1]
    results = reader.execute_many_results(kernel.description, batch)
    bg_app = engine._bg_app
    engine.settle()
    return {
        "sources": [r.source for r in results],
        "values": [r.value for r in results],
        "clocks": {
            name: (repr(clock.cycles), clock.breakdown()) for name, clock in clocks.items()
        },
        "deltas": {name: clock.cycles - before[name] for name, clock in clocks.items()},
        "engine": engine,
        "bg_app": bg_app,
        "recorder": recorder,
    }


def saved(costs, workers):
    """What ``workers`` round-robin lanes save over running ``costs`` serially."""
    lanes = max(1, min(workers, len(costs)))
    return sum(costs) - max(sum(costs[lane::lanes]) for lane in range(lanes))


@pytest.mark.parametrize("coalesce, duplicate", [(True, "coalesced"), (False, "l1")])
def test_stage3_lanes_move_no_charge_and_save_exactly_their_lanes(monkeypatch, coalesce, duplicate):
    serial = run_batch(monkeypatch, workers=1, coalesce=coalesce)
    lanes = run_batch(monkeypatch, workers=4, coalesce=coalesce)
    assert lanes["sources"][-1] == duplicate
    assert lanes["sources"].count("computed") == N_NOVEL
    assert lanes["sources"] == serial["sources"] and lanes["values"] == serial["values"]
    assert lanes["clocks"] == serial["clocks"]

    # Stage 1, stage 2, stage 3: one region each, with the same task
    # costs at either width.  Stage 3 holds one task per computed miss
    # (the duplicate takes none), all equal.
    regions = lanes["recorder"].regions
    assert regions == serial["recorder"].regions
    assert len(regions) == 3
    stage3 = regions[2]
    assert len(stage3) == N_NOVEL
    assert stage3 == pytest.approx([stage3[0]] * N_NOVEL) and stage3[0] > 0
    # With one shard every round is one group on one lane, so the rounds
    # cost the same at either width: the whole drop is the regions'.
    drop = serial["engine"].makespan_cycles - lanes["engine"].makespan_cycles
    stage3_saved = saved(stage3, 4)
    assert stage3_saved == pytest.approx((N_NOVEL - math.ceil(N_NOVEL / 4)) * stage3[0], abs=1e-6)
    assert drop - saved(regions[0], 4) - saved(regions[1], 4) == pytest.approx(
        stage3_saved, abs=1e-6
    )
    assert serial["engine"].serial_cycles == pytest.approx(lanes["engine"].serial_cycles)


def test_stage3_lanes_move_no_charge_on_a_replicated_cluster(monkeypatch):
    serial = run_batch(monkeypatch, workers=1, shards=4, replicas=2)
    lanes = run_batch(monkeypatch, workers=4, shards=4, replicas=2)
    assert len(lanes["clocks"]) == 5
    assert lanes["clocks"] == serial["clocks"]
    assert lanes["sources"] == serial["sources"]
    assert lanes["engine"].makespan_cycles < serial["engine"].makespan_cycles


def test_fails_if_a_drain_sits_inside_a_lane_task(monkeypatch):
    # A two-entry queue drained one PUT at a time: every miss after the
    # first forces a drain in the middle of stage 3.
    bounded = dict(put_queue_entries=2, put_flush_batch=1)
    run = run_batch(monkeypatch, workers=4, **bounded)
    recorder, engine = run["recorder"], run["engine"]
    opens, closes = ([i for i, e in enumerate(recorder.events) if e == kind]
                     for kind in ("open", "close"))
    assert "drain" in recorder.events[opens[2]:closes[2]]
    # Every cycle is counted at most once: a drain inside a task would be
    # in that task's cost and in the background lane.
    assert engine.serial_cycles <= sum(run["deltas"].values())
    # The drains' app cycles are the background lane's and no task's:
    # each task costs what it costs with nothing drained.
    assert run["bg_app"] == pytest.approx(recorder.drain_cycles) and recorder.drain_cycles > 0
    undrained = run_batch(monkeypatch, workers=4)
    assert recorder.regions == undrained["recorder"].regions
