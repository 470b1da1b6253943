"""Golden values for what a batch's result protection shows the world.

Two fixed-seed batches, each run without an engine and behind the
pipelined engine at ``workers=4``:

* ``novel16`` — ``execute_many`` of 16 never-seen ~1 KiB inputs: 16 PUTs;
* ``mixed32`` — 32 inputs mixing L1 hits, verified store hits, misses, a
  duplicate tag and one stored entry forged under another key.

For each, the digest of every queued ``PutRequest`` (tag, ``challenge``,
``wrapped_key``, ``sealed_result``), every item's ``source`` and
``CallRecord.sim_seconds`` (to the last bit) and ``verification_failures``
are pinned.  They were recorded from the one-record-at-a-time AEAD: a
change to how records are sealed or opened that moves a byte, a DRBG draw,
a virtual-clock charge or the item a charge is attributed to fails here.
``reverse`` declares a constant compute cost, ``COMPUTE_SECONDS``.
"""

import hashlib
import random

import pytest

import repro
from repro import RuntimeConfig
from repro.core.serialization import AnyParser, default_registry
from repro.core.tag import derive_tag
from repro.crypto import gcm
from repro.net.messages import PutRequest

COMPUTE_SECONDS = 2e-5
SOURCE_LETTER = {"computed": "c", "coalesced": "f", "l1": "l", "store": "s"}


def reverse(data: bytes) -> bytes:
    return data[::-1]


def _session(seed: bytes):
    session = repro.connect(shards=2, replication_factor=1, seed=seed, tracing=False)
    marked = session.mark(version="1.0", native_cost=lambda data: COMPUTE_SECONDS)(reverse)
    return session, marked.description


def _inputs(rng: random.Random, n: int) -> list[bytes]:
    return [rng.randbytes(rng.randint(960, 1088)) for _ in range(n)]


def _forge(attacker, description, data: bytes, rng: random.Random) -> None:
    """Store, before anyone computes ``data``, an entry of the right shape
    whose result is sealed under a key its locking hash does not unwrap."""
    runtime = attacker.runtime
    func_identity = runtime.libraries.function_identity(description)
    tag = derive_tag(func_identity, AnyParser(default_registry()).encode(data))
    sealed = gcm.seal(rng.randbytes(16), rng.randbytes(12), b"forged" * 40, aad=tag)
    reply = runtime.client.call(PutRequest(
        tag=tag, challenge=rng.randbytes(32), wrapped_key=rng.randbytes(16),
        sealed_result=sealed, app_id="attacker",
    ))
    assert reply.accepted


def novel16(engine: bool):
    session, description = _session(b"pins-novel16")
    if engine:
        session.enable_pipeline(depth=8, workers=4)
    return session, session.execute_many_results(
        description, _inputs(random.Random(16), 16)
    )


def mixed32(engine: bool):
    session, description = _session(b"pins-mixed32")
    rng = random.Random(32)
    warm, novel, forged = _inputs(rng, 20), _inputs(rng, 10), _inputs(rng, 1)
    session.execute_many(description, warm)
    session.flush_puts()
    _forge(session.sibling("attacker"), description, forged[0], rng)
    reader = session.sibling(
        "reader", runtime_config=RuntimeConfig(app_id="reader", l1_cache_entries=8)
    )
    reader.execute_many(description, warm[:4])   # now L1 hits
    reader.flush_puts()
    batch = warm + novel + forged + novel[:1]    # 20 + 10 + 1 + a duplicate tag
    rng.shuffle(batch)
    if engine:
        reader.enable_pipeline(depth=8, workers=4)
    return reader, reader.execute_many_results(description, batch)


def observed(session, results):
    runtime = session.runtime
    puts = hashlib.sha256()
    for put in runtime._pending_puts:
        for part in (put.tag, put.challenge, put.wrapped_key, put.sealed_result):
            puts.update(len(part).to_bytes(4, "big") + part)
    records = runtime.stats.records[-len(results):]
    items = [(r.source, rec.sim_seconds.hex()) for r, rec in zip(results, records)]
    return {
        "puts": (len(runtime._pending_puts), puts.hexdigest()[:24]),
        "items": hashlib.sha256(repr(items).encode()).hexdigest()[:24],
        "sources": "".join(SOURCE_LETTER[r.source] for r in results),
        "verification_failures": runtime.stats.verification_failures,
    }


PINNED = {
    ("novel16", False): {
        "puts": (16, "229c4c08fbef1a4c178b463d"),
        "items": "0521bf59be3679cf45b37a1c",
        "sources": "cccccccccccccccc",
        "verification_failures": 0,
    },
    ("novel16", True): {
        "puts": (16, "229c4c08fbef1a4c178b463d"),
        "items": "be4eb7033d18320c6bb84a83",
        "sources": "cccccccccccccccc",
        "verification_failures": 0,
    },
    ("mixed32", False): {
        "puts": (12, "8e93aaf9be73e0b993ee07b4"),
        "items": "f69b7617686548cb8cdccf39",
        "sources": "cclccslslcccssccssccssssssclssss",
        "verification_failures": 1,
    },
    ("mixed32", True): {   # the duplicate follows its leader: one PUT fewer
        "puts": (11, "50c562dbbf0259837e9084af"),
        "items": "6a042d7fe9c45a5abc45fb9d",
        "sources": "cclccslslcccssccsscfssssssclssss",
        "verification_failures": 1,
    },
}


@pytest.mark.parametrize("engine", [False, True], ids=["serial", "engine"])
@pytest.mark.parametrize("scenario", [novel16, mixed32], ids=lambda f: f.__name__)
def test_batch_protection_is_pinned(scenario, engine):
    assert observed(*scenario(engine)) == PINNED[(scenario.__name__, engine)]
