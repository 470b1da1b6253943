"""A durable batch PUT charges the virtual clock in a pinned order.

Three batch PUTs of 16 novel inputs into one durable shard that holds 16
entries and group-commits every 8 log records: the first batch fills the
store, the next two evict one entry per PUT, group commits fall in the
middle of a request, and the log folds into a checkpoint (every 64
records).  Every ``SimClock.charge_*`` call on the application's and the
shard's clock is recorded as ``(clock, name, args)``, in call order, with
both machines' EPC fault counts at the end.  A refactor of the PUT path
(runtime, router, store, WAL, checkpoint) must leave this sequence — and
so every simulated cycle and every page the EPC model faults — as it is.
"""

import hashlib

import repro
from repro.sgx.cost_model import SimClock
from repro.store.resultstore import StoreConfig

#: sha256 of the recorded sequence; re-pinned only by a deliberate change
#: to what a PUT charges, with the reason in CHANGES.md.
PINNED_SEQUENCE = "aa8d94b4637237e88953c7569a00b45acffb5c7730dcd881f57bf78699f92101"
BATCHES = 3
BATCH = 16


def reverse(data: bytes) -> bytes:
    return bytes(data[::-1])


def charge_sequence(monkeypatch) -> list[tuple]:
    session = repro.connect(
        shards=1, replication_factor=1, app_name="pin", seed=b"put-charge-pin",
        tracing=False,
        store_config=StoreConfig(
            durable=True, capacity_entries=BATCH, wal_group_commit=8, checkpoint_interval=64,
        ),
    )
    (node,) = session.cluster.shards.values()
    app_clock, shard_clock = session.platform.clock, node.platform.clock
    assert app_clock is not shard_clock
    labels = {id(app_clock): "app", id(shard_clock): "shard"}
    calls: list[tuple] = []

    def recording(name, charge):
        def record(self, *args):
            calls.append((labels.get(id(self), "other"), name, args))
            return charge(self, *args)
        return record

    for name, charge in list(vars(SimClock).items()):
        if name.startswith("charge_"):
            monkeypatch.setattr(SimClock, name, recording(name, charge))
    description = session.mark(version="1.0")(reverse).description
    inputs = [bytes([b, i]) * 300 for b in range(BATCHES) for i in range(BATCH)]
    for start in range(0, len(inputs), BATCH):
        batch = inputs[start:start + BATCH]
        assert session.execute_many(description, batch) == [reverse(x) for x in batch]
        session.flush_puts()
    monkeypatch.undo()
    store = node.store
    assert len(store) == BATCH and store.stats.evictions == len(inputs) - BATCH
    assert store.durable.checkpoints >= 1 and session.runtime.stats.puts_accepted == len(inputs)
    calls.append(("epc_faults", session.platform.epc.fault_count, node.platform.epc.fault_count))
    return calls


def test_a_durable_batch_put_charges_in_the_pinned_order(monkeypatch):
    calls = charge_sequence(monkeypatch)
    assert {clock for clock, *_ in calls[:-1]} == {"app", "shard"}
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert digest == PINNED_SEQUENCE, f"charge sequence moved: {digest} ({len(calls)} calls)"
