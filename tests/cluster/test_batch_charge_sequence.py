"""A pipelined cluster batch charges the virtual clocks, and solves its
schedules, in a pinned order.

A ``mix2k_cluster_batch``-shaped rig, scaled down: a writer fills four
shards at replication factor 2, then a ``reader`` sibling with a small L1
and ``enable_pipeline(depth=8, workers=4)`` issues batches of 32, each
with 8 novel inputs and repeated popular ones (so the engine coalesces
tags, the L1 answers some, and the store answers or misses the rest),
with a ``flush_puts`` after each batch (whose drain the next batch's
first round takes) and an engine settle after the last.

Two sequences are pinned by sha256: every ``SimClock.charge_*`` call on
the application's and each shard's clock, as ``(clock, name, args)`` in
call order; and every schedule the engine solves, as its task costs,
kinds, resources, dependencies (as sets), start times and makespan.  A
refactor of the batch path (runtime stages, engine rounds, router
fan-out, RPC, transport, store GET handler, group AEAD) must leave both
as they are, and with them every simulated cycle and makespan.
"""

import hashlib
import random

import repro
import repro.engine
from repro.core.runtime import RuntimeConfig
from repro.sgx.cost_model import SimClock

#: sha256 of the recorded charges and of the solved schedules; re-pinned
#: only by a deliberate change to what a batch charges or how the engine
#: schedules it, with the reason in CHANGES.md.
PINNED_CHARGES = "14fe64e915570599fc3193cf41a2806b033232692244d16a11a18129f1ef78bc"
PINNED_SCHEDULES = "1653df2c362056ac146356c4e0df40f715cdbd8fdd9113501eb8bea3cdc9c86f"
WARM = 64
BATCHES = 4
BATCH = 32
NOVEL = 8


def reverse(data: bytes) -> bytes:
    return bytes(data[::-1])


def record(monkeypatch) -> tuple[list, list]:
    rng = random.Random("batch-charge-pin")
    warm = [rng.randbytes(rng.randint(1900, 2200)) for _ in range(WARM)]
    writer = repro.connect(
        shards=4, replication_factor=2, app_name="writer", seed=b"batch-charge-pin",
        tracing=False,
    )
    description = writer.mark(version="1.0")(reverse).description
    for start in range(0, WARM, BATCH):
        writer.execute_many(description, warm[start:start + BATCH])
        writer.flush_puts()
    reader = writer.sibling(
        "reader", runtime_config=RuntimeConfig(app_id="reader", l1_cache_entries=16)
    )
    engine = reader.enable_pipeline(depth=8, workers=4)
    labels = {id(reader.platform.clock): "app"}
    for shard_id, node in reader.cluster.shards.items():
        assert node.platform.clock is not reader.platform.clock
        labels[id(node.platform.clock)] = shard_id
    charges: list[tuple] = []
    schedules: list[tuple] = []

    def recording(name, charge):
        def record_charge(self, *args):
            charges.append((labels.get(id(self), "other"), name, args))
            return charge(self, *args)
        return record_charge

    for name, charge in list(vars(SimClock).items()):
        if name.startswith("charge_"):
            monkeypatch.setattr(SimClock, name, recording(name, charge))
    solve = repro.engine.list_schedule

    def solving(costs, priorities, shards, deps, lanes):
        starts = solve(costs, priorities, shards, deps, lanes)
        schedules.append((
            list(costs), list(priorities), list(shards),
            [sorted(set(before)) for before in deps], lanes, list(starts),
            max((s + c for s, c in zip(starts, costs)), default=0.0),
        ))
        return starts

    monkeypatch.setattr(repro.engine, "list_schedule", solving)
    popular = warm[:24]
    for _ in range(BATCHES):
        inputs = rng.choices(popular, k=BATCH - NOVEL)
        for position in sorted(rng.sample(range(BATCH), NOVEL)):
            inputs.insert(position, rng.randbytes(rng.randint(1900, 2200)))
        assert reader.execute_many(description, inputs) == [reverse(x) for x in inputs]
        reader.flush_puts()  # its drain lands in the next batch's first round
    engine.settle()
    monkeypatch.undo()
    stats = reader.runtime.stats
    assert stats.l1_hits and stats.coalesced_hits and stats.hits > stats.l1_hits
    assert stats.puts_accepted == BATCHES * NOVEL
    charges.append(("engine", engine.makespan_cycles, engine.serial_cycles, engine.rounds))
    return charges, schedules


def test_a_pipelined_batch_charges_and_schedules_in_the_pinned_order(monkeypatch):
    charges, schedules = record(monkeypatch)
    assert {clock for clock, *_ in charges[:-1]} == {"app", "shard-0", "shard-1", "shard-2", "shard-3"}
    assert len(schedules) == BATCHES + 1  # each batch, then the settle
    charged = hashlib.sha256(repr(charges).encode()).hexdigest()
    solved = hashlib.sha256(repr(schedules).encode()).hexdigest()
    assert (charged, solved) == (PINNED_CHARGES, PINNED_SCHEDULES), (
        f"charges {charged} ({len(charges)} calls), schedules {solved} ({len(schedules)} solved)"
    )
