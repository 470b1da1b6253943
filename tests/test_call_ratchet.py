"""The call ratchet: a lone store hit may not grow past a committed ceiling.

A lone 1 KiB store hit (the end-to-end benchmark's ``hit1k_call``) is
paid for mostly outside its AES and GHASH kernels, in the Python of each
layer it crosses.  That Python is counted here the way ``sys.setprofile``
sees it: every call into a function defined under ``src/repro``, over a
fixed number of lone hits at a fixed seed, after a warm-up.  Builtins,
the standard library, numpy and the code ``net/framing`` and
``dataclasses`` compile at run time are not counted.

``LONE_HIT_CALL_CEILING`` holds the count of the last change that moved
it, plus headroom for the interpreters CI runs (3.12 inlines
comprehensions, so it counts fewer).  A change that removes calls lowers
it to its new count; a change that has to add calls raises it and gives
the reason in CHANGES.md.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import repro
from repro.core.runtime import RuntimeConfig
from repro.crypto import gcm

SRC = str(Path(repro.__file__).resolve().parent)

#: Calls into ``src/repro`` per lone hit: 306.05 on CPython 3.11 when set
#: (450.45 before the lone-hit path was trimmed), plus about 5 % headroom.
LONE_HIT_CALL_CEILING = 320

WARM_INPUTS = 64
WARM_HITS = 8
COUNTED_HITS = 40


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


def lone_hit_calls() -> float:
    """Calls into ``src/repro`` per lone store hit."""
    gcm._CIPHER_CACHE.clear()  # a full cache would add an eviction per hit
    reader, description, inputs = _reader()
    for data in inputs[:WARM_HITS]:
        assert reader.execute(description, data) == reverse(data)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            calls += 1

    counted = inputs[WARM_HITS:WARM_HITS + COUNTED_HITS]
    sys.setprofile(count)
    try:
        outputs = [reader.execute(description, data) for data in counted]
    finally:
        sys.setprofile(None)
    assert outputs == [reverse(data) for data in counted]
    stats = reader.runtime.stats
    assert stats.hits - stats.l1_hits == stats.calls == WARM_HITS + COUNTED_HITS
    return calls / COUNTED_HITS


def test_a_lone_hit_stays_under_its_call_ceiling():
    per_hit = lone_hit_calls()
    assert per_hit <= LONE_HIT_CALL_CEILING, (
        f"a lone store hit makes {per_hit:.1f} calls into src/repro, "
        f"{per_hit - LONE_HIT_CALL_CEILING:.1f} over its ceiling of {LONE_HIT_CALL_CEILING} "
        f"(LONE_HIT_CALL_CEILING in tests/test_call_ratchet.py).  Remove calls, or raise "
        f"the ceiling and give the reason in CHANGES.md."
    )
