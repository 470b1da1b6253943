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
PINNED = {
    1: "f46a4983c8b41a55",  # pipeline
    2: "8eb3b6b5f8507e02",  # deep
    3: "17cf6b2a4c523d8c",  # serial
    4: "b67eac855488b986",  # pipeline
    5: "a9d26fe8d0156958",  # deep
    6: "f03fb42eda5dbaa4",  # serial
    7: "c0ce1d2dbc63a9bd",  # pipeline
    8: "968551bcc2cae701",  # deep
    9: "76dada1efb420646",  # serial
    10: "5fdf6b493d95336e",  # pipeline
    11: "c818eddc5fc4dba1",  # deep
    12: "4311e4a2f12069eb",  # serial
    13: "66c5620fbf30a526",  # pipeline
    14: "46a04648f45f7e15",  # deep
    15: "073af8a527c2f618",  # serial
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
