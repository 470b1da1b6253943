"""Pinned trace digests: "simtest digests unchanged", as a test.

The other simtest tests compare a run with its own replay, so a change
that moves every trace the same way passes them.  These digests were
recorded at a known-good commit; a refactor of the request path must
leave every one of them alone, and a deliberate behaviour change re-pins
exactly the lines it moves, in the commit that moves them, with the
reason in its message.

Regenerate one line (the summary prints ``digest=<the 16 hex digits>``)::

    PYTHONPATH=src python -m repro.simtest --seed 3 --steps 25 --pipeline

with the mode's flag (none, ``--pipeline``, ``--adaptive``,
``--power-fail``, ``--migrate``) and the seed of the line.
"""

import pytest

from repro.simtest import SimConfig, run_scenario

MODES = {
    "default": {},
    "pipeline": {"pipeline": True},
    "adaptive": {"adaptive": True},
    "power-fail": {"power_fail": True},
    "migrate": {"migrate": True},
}

# mode -> digest of seeds 1..5 at 25 steps, 3 shards.  Recorded at
# 2c427d1, except seeds 1, 3 and 5 of "pipeline" and "adaptive": recorded
# at the fix that asks a shard's breaker once per refused send (their
# traces open a breaker, so their skip counts moved with it).
PINNED = {
    "default": ["3755d4583f43d3cb", "c1ca644b83b54196", "e46b99a4abed0641",
                "434b299508bc44e3", "6e62880fd4b701a8"],
    "pipeline": ["c35703694c6204dc", "cb31e113b379e8af", "231ef29920cedbcc",
                 "c1ea131ecff49d95", "ddfb6bed43d38abf"],
    "adaptive": ["399121446b2d3377", "752b674ef2343e3e", "2822af810259117a",
                 "334b93e9936d8aa7", "2a07cdcff01ae9d8"],
    "power-fail": ["3a03fc5baf92dae2", "94d20737df1a614c", "1a17fe1427b8e4e1",
                   "754fb69254714371", "01bcf6cb5812fb96"],
    "migrate": ["749884ee77e3bd0e", "525cac1f11288f7c", "ea3d4a9af4bed353",
                "2c29db20e0bbd0d7", "26dd8dc783d02b03"],
}


@pytest.mark.parametrize("mode", MODES)
def test_digests_match_the_pinned_table(mode):
    got = []
    for seed in range(1, 6):
        result = run_scenario(SimConfig(seed=seed, steps=25, **MODES[mode]))
        assert result.ok, "\n".join(str(v) for v in result.violations)
        got.append(result.digest[:16])
    assert got == PINNED[mode]
