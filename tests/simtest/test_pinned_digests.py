"""Pinned trace digests: "simtest digests unchanged", as a test.

The other simtest tests compare a run with its own replay, so a change
that moves every trace the same way passes them.  These digests were
recorded at a known-good commit; a refactor of the request path must
leave every one of them alone, and a deliberate behaviour change re-pins
exactly the lines it moves, in the commit that moves them, with the
reason in its message.

Regenerate one line (the summary prints ``digest=<the 16 hex digits>``)::

    PYTHONPATH=src python -m repro.simtest --seed 3 --steps 25

The same pinned runs are the coverage guard that keeps "every fault
class, all eight invariants, in every run" from going vacuous: over
them every op of the table fires and invariants 5-8 are each evaluated.
"""

import re

import pytest

from repro.simtest import SimConfig
from repro.simtest.runner import ENGINES, OPS

# seed -> digest at 25 steps, 3 shards; seed % 3 picks the engine, so
# each engine has five rows.  Recorded when the mode flags were folded
# into one schedule (every run now draws every fault class, on durable
# stores, and checks all eight invariants).  The pipeline and deep rows
# were re-pinned when the adaptive depth governor was deleted: a
# pipeline trace lost only its four ``counter engine.depth_*=0`` lines
# (decisions, changes, shrinks, migration_caps); the third engine became
# a static depth-16 window, so its runs take other rounds (message,
# retry and rebalance counts move) and print no decision-log line.
# Rows 1, 2, 3, 4, 9, 10, 12, 14 and 15 were re-pinned when each fresh GET
# began asking the less-loaded copy of its replica set first (the
# serial engine's call_batch plans a batch, the others plan a round):
# no call or batch outcome moved; seed 3's power-fail replay, hand-off
# and rebalance counts and seed 14's rebalance count did, and so did
# counter lines (net.messages on every row; skips, retries, duplicates
# and rejected records on some).
PINNED = {
    1: "1c6d719120fa5c95",  # pipeline
    2: "28e7e784f6acc8f8",  # deep
    3: "d158c599eb1170c2",  # serial
    4: "22e937b805056ee0",  # pipeline
    5: "a9d26fe8d0156958",  # deep
    6: "f03fb42eda5dbaa4",  # serial
    7: "c0ce1d2dbc63a9bd",  # pipeline
    8: "968551bcc2cae701",  # deep
    9: "b410ca3e7a75cae3",  # serial
    10: "b3b400580a1bf70c",  # pipeline
    11: "c818eddc5fc4dba1",  # deep
    12: "96f297a1292b2443",  # serial
    13: "66c5620fbf30a526",  # pipeline
    14: "405bd586d4641987",  # deep
    15: "37b71ff4fbad57a4",  # serial
}

#: An op line whose handler found nothing to do.
IDLE = re.compile(r" (skipped|drained|blocked|deferred|error=\w+)$")


@pytest.fixture(scope="module")
def pinned(scenario):
    return [scenario(SimConfig(seed=seed, steps=25)) for seed in PINNED]


@pytest.mark.parametrize("engine", ENGINES)
def test_digests_match_the_pinned_table(engine, pinned):
    runs = [result for result in pinned if result.config.engine == engine]
    assert len(runs) == 5
    for result in runs:
        assert result.ok, "\n".join(str(v) for v in result.violations)
    got = {result.config.seed: result.digest[:16] for result in runs}
    assert got == {seed: PINNED[seed] for seed in got}


def test_every_op_fires(pinned):
    fired = {
        line.split(" op=")[1].split()[0]
        for result in pinned
        for line in result.trace
        if " op=" in line and not IDLE.search(line)
    }
    assert [op.name for op in OPS if op.name not in fired] == []


@pytest.mark.parametrize("invariant", [
    "durability", "correctness", "confidentiality", "conservation",
    "coalescing", "recovery", "single_owner", "depth_identity",
])
def test_invariant_is_evaluated(invariant, pinned):
    # 5, 6 and 8 run only where the walk drew a batch, a power failure
    # or a deep seed; none may drop out of the pinned runs.
    assert sum(result.checked[invariant] for result in pinned) > 0
