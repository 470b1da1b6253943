"""Scenario shrinking: reduce a failing config to a smaller one that
still fails.

When a seed trips an invariant, the raw scenario may be dozens of steps
of interleaved chaos.  :func:`shrink` searches for a *smaller*
still-failing configuration along two axes:

* fewer steps (binary descent on ``steps``);
* fewer fault classes (try adding each of ``FAULT_CLASSES`` to
  ``without``, keeping any that preserves the failure).

The result is the minimal configuration the search found, which replays
deterministically via its own ``--seed`` repro string.  ``run`` is
injectable so unit tests can exercise the search with a synthetic
oracle instead of full scenarios.
"""

from __future__ import annotations

from dataclasses import replace

from .runner import FAULT_CLASSES, SimConfig, run_scenario


def _fails(config: SimConfig, run) -> bool:
    return not run(config).ok


def shrink(config: SimConfig, run=run_scenario, max_runs: int = 40):
    """Return ``(smaller_config, runs_used)`` with the failure preserved.

    ``config`` must already fail under ``run``; if it does not, it is
    returned unchanged.
    """
    runs = 0

    def failing(candidate: SimConfig) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False
        runs += 1
        return _fails(candidate, run)

    if not failing(config):
        return config, runs

    current = config

    # Axis 1: leave out whole fault classes (coarsest reduction first).
    for fault in FAULT_CLASSES:
        candidate = replace(current, without=current.without | {fault})
        if candidate != current and failing(candidate):
            current = candidate

    # Axis 2: binary descent on the step count.
    low, high = 1, current.steps
    while low < high:
        mid = (low + high) // 2
        candidate = replace(current, steps=mid)
        if failing(candidate):
            current = candidate
            high = mid
        else:
            low = mid + 1

    return current, runs
