"""The call ratchets: a lone store hit, a durable batch PUT and an op of
a pipelined cluster batch may not grow past committed ceilings.

A lone 1 KiB store hit (the end-to-end benchmark's ``hit1k_call``), a
PUT in a durable batch of 16 (``put1k_durable_batch``) and an op of a
pipelined batch of 32 on four shards (``mix2k_cluster_batch``) are paid
for mostly outside their AES, GHASH, SHA-256 and HMAC kernels, in the
Python of each layer they cross.  That Python is counted here the way
``sys.setprofile`` sees it: every call into a function defined under
``src/repro``, over a fixed amount of work at a fixed seed, after a
warm-up.  Builtins, the standard library, numpy and the code
``net/framing`` and ``dataclasses`` compile at run time are not counted.

Each ceiling holds the count of the last change that moved it, plus
headroom for the interpreters CI runs (3.12 inlines comprehensions, so
it counts fewer).  A change that removes calls lowers it to its new
count; a change that has to add calls raises it and gives the reason in
CHANGES.md.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import repro
from repro.core.runtime import RuntimeConfig
from repro.crypto import gcm
from repro.store.resultstore import StoreConfig

SRC = str(Path(repro.__file__).resolve().parent)

#: Calls into ``src/repro`` per lone hit: 270.65 on CPython 3.11 when last
#: lowered (450.45 before the lone-hit path was trimmed, 306.05 after,
#: 296.05 before the pipelined batch's), plus about 5 % headroom.
LONE_HIT_CALL_CEILING = 284

#: Calls into ``src/repro`` per PUT of a durable batch of 16: 145.26 on
#: CPython 3.11 when last lowered (233.02 before the batch PUT path was
#: trimmed, 169.83 after), plus about 5 % headroom.
BATCH_PUT_CALL_CEILING = 152

#: Calls into ``src/repro`` per op of a pipelined cluster batch: 153.88 on
#: CPython 3.11 when set (202.38 before the pipelined batch path was
#: trimmed), plus about 5 % headroom.
PIPELINED_BATCH_CALL_CEILING = 161

WARM_INPUTS = 64
WARM_HITS = 8
COUNTED_HITS = 40
# The batch PUT rig: put1k_durable_batch scaled down four times.  Its
# store holds PUT_CAPACITY entries and checkpoints every PUT_CAPACITY log
# records, so, as there, a PUT at capacity logs two records and a
# checkpoint images two entries per PUT.
PUT_BATCH = 16
PUT_CAPACITY = 64
WARM_PUT_BATCHES = PUT_CAPACITY // PUT_BATCH + 2
COUNTED_PUT_BATCHES = 6
# The pipelined batch rig: mix2k_cluster_batch with its warm set scaled
# down four times and its reader's L1 twice, and two-request passes (a
# flush and an engine settle after each pass, as there).
MIX_WARM, MIX_L1, MIX_BATCH, MIX_NOVEL, MIX_PASS = 64, 16, 32, 8, 2
WARM_MIX_PASSES, COUNTED_MIX_PASSES = 2, 2


def reverse(data: bytes) -> bytes:
    return bytes(data[::-1])


def _reader():
    """A writer's warm fill, then a ``reader`` sibling with no L1, as
    ``hit1k_call`` builds them: one shard on the app machine."""
    rng = random.Random("call-ratchet")
    inputs = [rng.randbytes(rng.randint(1024 - 128, 1024 + 128)) for _ in range(WARM_INPUTS)]
    writer = repro.connect(app_name="writer", seed=b"call-ratchet", tracing=False)
    description = writer.mark(version="1.0")(reverse).description
    for start in range(0, WARM_INPUTS, 32):
        writer.execute_many(description, inputs[start:start + 32])
        writer.flush_puts()
    reader = writer.sibling("reader", runtime_config=RuntimeConfig(app_id="reader"))
    return reader, description, inputs


def _src_calls(work) -> int:
    """Calls into ``src/repro`` while ``work()`` runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            calls += 1

    sys.setprofile(count)
    try:
        work()
    finally:
        sys.setprofile(None)
    return calls


def lone_hit_calls() -> float:
    """Calls into ``src/repro`` per lone store hit."""
    gcm._CIPHER_CACHE.clear()  # a full cache would add an eviction per hit
    reader, description, inputs = _reader()
    for data in inputs[:WARM_HITS]:
        assert reader.execute(description, data) == reverse(data)
    counted = inputs[WARM_HITS:WARM_HITS + COUNTED_HITS]
    outputs = []
    calls = _src_calls(lambda: outputs.extend(reader.execute(description, data) for data in counted))
    assert outputs == [reverse(data) for data in counted]
    stats = reader.runtime.stats
    assert stats.hits - stats.l1_hits == stats.calls == WARM_HITS + COUNTED_HITS
    return calls / COUNTED_HITS


def batch_put_calls() -> float:
    """Calls into ``src/repro`` per PUT of a durable batch: one durable
    shard at capacity, batches of 16 novel ~1 KiB inputs, a flush after
    each batch (``put1k_durable_batch``'s request)."""
    gcm._CIPHER_CACHE.clear()
    rng = random.Random("call-ratchet/put")
    session = repro.connect(
        shards=1, replication_factor=1, app_name="writer", seed=b"call-ratchet/put",
        tracing=False,
        store_config=StoreConfig(
            durable=True, wal_group_commit=8, capacity_entries=PUT_CAPACITY,
            checkpoint_interval=PUT_CAPACITY,
        ),
    )
    description = session.mark(version="1.0")(reverse).description

    def put_batches(count: int) -> None:
        for _ in range(count):
            batch = [rng.randbytes(rng.randint(1024 - 16, 1024 + 16)) for _ in range(PUT_BATCH)]
            assert session.execute_many(description, batch) == [reverse(x) for x in batch]
            session.flush_puts()

    put_batches(WARM_PUT_BATCHES)
    calls = _src_calls(lambda: put_batches(COUNTED_PUT_BATCHES))
    puts = COUNTED_PUT_BATCHES * PUT_BATCH
    (node,) = session.cluster.shards.values()
    assert len(node.store) == PUT_CAPACITY and node.store.durable.checkpoints >= 4
    assert session.runtime.stats.puts_accepted == (WARM_PUT_BATCHES + COUNTED_PUT_BATCHES) * PUT_BATCH
    return calls / puts


def pipelined_batch_calls() -> float:
    """Calls into ``src/repro`` per op of a pipelined cluster batch: four
    shards at replication factor 2, a reader sibling with a small L1
    behind ``enable_pipeline(depth=8, workers=4)``, batches of 32 with 8
    novel ~2 KiB inputs and the rest Zipf(0.9) over the writer's warm
    set (``mix2k_cluster_batch``'s request)."""
    gcm._CIPHER_CACHE.clear()
    rng = random.Random("call-ratchet/mix")
    warm = [rng.randbytes(rng.randint(2048 - 32, 2048 + 32)) for _ in range(MIX_WARM)]
    writer = repro.connect(
        shards=4, replication_factor=2, app_name="writer", seed=b"call-ratchet/mix",
        tracing=False,
    )
    description = writer.mark(version="1.0")(reverse).description
    for start in range(0, MIX_WARM, MIX_BATCH):
        writer.execute_many(description, warm[start:start + MIX_BATCH])
        writer.flush_puts()
    reader = writer.sibling(
        "reader", runtime_config=RuntimeConfig(app_id="reader", l1_cache_entries=MIX_L1)
    )
    engine = reader.enable_pipeline(depth=8, workers=4)
    weights = list(itertools.accumulate(rank ** -0.9 for rank in range(1, MIX_WARM + 1)))

    def passes(count: int) -> None:
        for _ in range(count):
            for _ in range(MIX_PASS):
                batch = rng.choices(warm, cum_weights=weights, k=MIX_BATCH - MIX_NOVEL)
                for position in sorted(rng.sample(range(MIX_BATCH), MIX_NOVEL)):
                    batch.insert(position, rng.randbytes(rng.randint(2048 - 32, 2048 + 32)))
                assert reader.execute_many(description, batch) == [reverse(x) for x in batch]
            reader.flush_puts()
            engine.settle()

    passes(WARM_MIX_PASSES)
    calls = _src_calls(lambda: passes(COUNTED_MIX_PASSES))
    stats = reader.runtime.stats
    assert stats.l1_hits and stats.coalesced_hits and stats.hits > stats.l1_hits
    return calls / (COUNTED_MIX_PASSES * MIX_PASS * MIX_BATCH)


def test_a_lone_hit_stays_under_its_call_ceiling():
    per_hit = lone_hit_calls()
    assert per_hit <= LONE_HIT_CALL_CEILING, (
        f"a lone store hit makes {per_hit:.1f} calls into src/repro, "
        f"{per_hit - LONE_HIT_CALL_CEILING:.1f} over its ceiling of {LONE_HIT_CALL_CEILING} "
        f"(LONE_HIT_CALL_CEILING in tests/test_call_ratchet.py).  Remove calls, or raise "
        f"the ceiling and give the reason in CHANGES.md."
    )


def test_a_durable_batch_put_stays_under_its_call_ceiling():
    per_put = batch_put_calls()
    assert per_put <= BATCH_PUT_CALL_CEILING, (
        f"a PUT of a durable batch makes {per_put:.1f} calls into src/repro, "
        f"{per_put - BATCH_PUT_CALL_CEILING:.1f} over its ceiling of {BATCH_PUT_CALL_CEILING} "
        f"(BATCH_PUT_CALL_CEILING in tests/test_call_ratchet.py).  Remove calls, or raise "
        f"the ceiling and give the reason in CHANGES.md."
    )


def test_a_pipelined_batch_op_stays_under_its_call_ceiling():
    per_op = pipelined_batch_calls()
    assert per_op <= PIPELINED_BATCH_CALL_CEILING, (
        f"an op of a pipelined cluster batch makes {per_op:.1f} calls into src/repro, "
        f"{per_op - PIPELINED_BATCH_CALL_CEILING:.1f} over its ceiling of "
        f"{PIPELINED_BATCH_CALL_CEILING} (PIPELINED_BATCH_CALL_CEILING in "
        f"tests/test_call_ratchet.py).  Remove calls, or raise the ceiling and give the "
        f"reason in CHANGES.md."
    )
