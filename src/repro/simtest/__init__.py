"""Deterministic simulation testing for the SPEED reproduction.

FoundationDB-style simulation testing adapted to this codebase: every
component already runs on simulated machines over a loopback network,
so the whole deployment — application enclaves, channel crypto, RPC,
shard routing, stores, persistence — can be driven through randomized
fault schedules that replay **byte-identically** from a single integer
seed.

Entry points::

    from repro.simtest import SimConfig, run_scenario
    result = run_scenario(SimConfig(seed=7))
    assert result.ok, result.violations

    python -m repro.simtest --seed 7          # replay one scenario
    python -m repro.simtest --runs 50         # CI sweep
    python -m repro.simtest --runs 50 --without crash,drop

Every run mixes every fault class and checks all eight invariants; the
seed also picks the engine.  Every failure prints a one-line repro
string; see :mod:`repro.simtest.invariants` for the oracle and DESIGN.md
for the mapping between the fault model and the paper's §III threat
model.
"""

from .invariants import Violation
from .runner import (
    FAULT_CLASSES, ScenarioResult, SimConfig, replay_check, run_scenario, run_seeds,
)
from .schedule import FaultPlan
from .shrinking import shrink

__all__ = [
    "FAULT_CLASSES",
    "FaultPlan",
    "ScenarioResult",
    "SimConfig",
    "Violation",
    "replay_check",
    "run_scenario",
    "run_seeds",
    "shrink",
]
