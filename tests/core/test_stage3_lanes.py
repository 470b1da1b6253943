"""Stage 3 (compute + protect) on the enclave worker lanes.

A mix2k-shaped batch — store hits, equal-size misses and one in-batch
duplicate of a miss — runs behind the pipelined engine at ``workers=1``
and at ``workers=4``.  The duplicate is a coalesced follower and takes
no stage-3 task.  Only the engine's critical-path accounting may move:
every clock charge and every task is the same, and the makespan is
exactly the reference list schedule of the batch's task graph
(``tests/schedule_reference.py``) at either width.
"""

import math
import random
from contextlib import contextmanager

import pytest

import repro
from repro import RuntimeConfig
from tests.schedule_reference import capture, violations

COMPUTE_SECONDS = 3e-5
INPUT_BYTES = 2048
N_WARM, N_NOVEL = 6, 5


def reverse(data: bytes) -> bytes:
    return data[::-1]


class Recorder:
    """Records each lane region's task costs."""

    def __init__(self, engine, monkeypatch):
        self.regions: list[list[float]] = []
        open_region = engine.parallel_region

        @contextmanager
        def region(*kind):
            with open_region(*kind) as lanes:
                first = len(lanes._schedule.costs)  # a region's tasks are consecutive
                yield lanes
            self.regions.append(lanes._schedule.costs[first:])

        monkeypatch.setattr(engine, "parallel_region", region)


def mixed(warm, novel):
    """Hits and misses interleaved, and one in-batch duplicate of a miss."""
    return warm[:3] + novel[:2] + warm[3:] + novel[2:] + novel[:1]


def run_batch(monkeypatch, workers, shards=1, replicas=1, arrange=mixed, schedule=True):
    """One batch on a fresh deployment; returns what the tests read
    (with ``schedule``, the graphs the engine solved)."""
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
        app_id="reader", l1_cache_entries=16,
    ))
    engine = reader.enable_pipeline(depth=8, workers=workers)
    recorder = Recorder(engine, monkeypatch)
    solved = capture(monkeypatch).solved if schedule else []
    clocks = {"app": reader.clock} | {
        sid: node.platform.clock for sid, node in session.cluster.shards.items()
    }
    batch = arrange(warm, novel)
    results = reader.execute_many_results(kernel.description, batch)
    engine.settle()
    return {
        "sources": [r.source for r in results],
        "values": [r.value for r in results],
        "clocks": {
            name: (repr(clock.cycles), clock.breakdown()) for name, clock in clocks.items()
        },
        "engine": engine,
        "recorder": recorder,
        "solved": list(solved),  # a later run's graphs land here too
    }


def the_schedule(run):
    """The batch's one solved graph: the engine's makespan is exactly the
    reference's, and its start times break nothing in the model."""
    ((graph, starts),) = run["solved"]
    engine = run["engine"]
    assert engine.makespan_cycles == graph.makespan
    assert violations(graph, starts, engine.serial_cycles) == []
    return graph


def test_stage3_lanes_move_no_charge_and_save_exactly_their_lanes(monkeypatch):
    serial = run_batch(monkeypatch, workers=1)
    lanes = run_batch(monkeypatch, workers=4)
    assert lanes["sources"][-1] == "coalesced"
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
    # One graph at either width: tasks, costs and dependencies; only the
    # lanes differ, and the makespan is the reference schedule's.
    wide, narrow = the_schedule(lanes), the_schedule(serial)
    assert (wide.costs, wide.kinds, wide.shards, wide.deps) == (
        narrow.costs, narrow.kinds, narrow.shards, narrow.deps
    )
    assert (wide.lanes, narrow.lanes) == (4, 1)
    assert wide.kinds.count("compute") == N_NOVEL
    assert lanes["engine"].makespan_cycles < serial["engine"].makespan_cycles
    assert serial["engine"].serial_cycles == lanes["engine"].serial_cycles


def test_stage3_lanes_move_no_charge_on_a_replicated_cluster(monkeypatch):
    serial = run_batch(monkeypatch, workers=1, shards=4, replicas=2)
    lanes = run_batch(monkeypatch, workers=4, shards=4, replicas=2)
    assert len(lanes["clocks"]) == 5
    assert lanes["clocks"] == serial["clocks"]
    assert lanes["sources"] == serial["sources"]
    the_schedule(serial)
    the_schedule(lanes)
    assert lanes["engine"].makespan_cycles < serial["engine"].makespan_cycles


@pytest.mark.parametrize("workers", [2, 4])
def test_a_miss_stage2_task_does_not_make_two_verifications_share_a_lane(monkeypatch, workers):
    # Found items and misses interleaved in one batch: one round, one
    # group, so the batch is its tags, the round's chain, the
    # verifications and the computes one after another.  A miss's
    # stage-2 task costs nothing and must not put two verifications on
    # one lane: they finish in ceil(found / workers) verification costs.
    def interleaved(warm, novel):
        return [x for pair in zip(warm[:4], novel[:4]) for x in pair]

    serial = run_batch(monkeypatch, workers=1, arrange=interleaved, schedule=False)
    lanes = run_batch(monkeypatch, workers=workers, arrange=interleaved, schedule=False)
    assert lanes["sources"] == ["store", "computed"] * 4
    tags, verify, compute = lanes["recorder"].regions
    found = verify[0::2]
    assert tags == pytest.approx([tags[0]] * 8)
    assert found == pytest.approx([found[0]] * 4) and found[0] > 0
    assert verify[1::2] == [0.0] * 4
    assert compute == pytest.approx([compute[0]] * 4)
    chain = serial["engine"].makespan_cycles - sum(tags) - sum(verify) - sum(compute)
    waves = math.ceil(4 / workers)
    assert lanes["engine"].makespan_cycles == pytest.approx(
        math.ceil(8 / workers) * tags[0] + chain + waves * found[0] + waves * compute[0],
        abs=1e-6,
    )

