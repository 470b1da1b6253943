"""A checkpoint lists the log's own host names, never the whole host.

Installing a checkpoint drops the segments and blob copies it folded in,
and ``DurableLog.snapshot`` counts them; both list host names by prefix.
The host also holds the store's arena (one name per stored entry), which
grows with the store, not with the log.  So the names one checkpoint's
install, and one snapshot, look at are counted here as the prefix checks
(``str.startswith`` calls, seen as ``sys.setprofile`` ``c_call`` events)
they make, with a small arena and with one over ten times larger: the
two counts must be equal.
"""

import random
import sys

import repro
from repro.durable.wal import DurableLog
from repro.store.resultstore import StoreConfig

BATCH = 8


def reverse(data: bytes) -> bytes:
    return bytes(data[::-1])


def prefix_checks(work) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "c_call" and getattr(arg, "__name__", "") == "startswith":
            calls += 1

    sys.setprofile(count)
    try:
        work()
    finally:
        sys.setprofile(None)
    return calls


def test_a_checkpoint_does_not_scan_the_arena(monkeypatch):
    session = repro.connect(
        shards=1, replication_factor=1, seed=b"checkpoint-names", tracing=False,
        store_config=StoreConfig(durable=True, wal_group_commit=BATCH, checkpoint_interval=BATCH),
    )
    (node,) = session.cluster.shards.values()
    log = node.store.durable
    description = session.mark(version="1.0")(reverse).description
    rng = random.Random("checkpoint-names")
    installs: list[tuple[int, int]] = []  # (arena entries, prefix checks)
    install = DurableLog.install_checkpoint

    def counted(self, sealed_payload):
        installs.append((len(node.store), prefix_checks(lambda: install(self, sealed_payload))))

    monkeypatch.setattr(DurableLog, "install_checkpoint", counted)

    def put_batches(count: int) -> int:
        for _ in range(count):
            batch = [rng.randbytes(512) for _ in range(BATCH)]
            assert session.execute_many(description, batch) == [reverse(x) for x in batch]
            session.flush_puts()
        return prefix_checks(log.snapshot)

    small = put_batches(3)
    large = put_batches(30)
    # The first install also writes the checkpoint's name for the first time.
    (small_arena, small_install), *_, (large_arena, large_install) = installs[1:]
    assert large_arena >= 10 * small_arena
    assert large_install == small_install
    assert large == small
