"""CLI for the simulation harness.

Replay one seed::

    python -m repro.simtest --seed 7

Sweep many seeds (CI / nightly)::

    python -m repro.simtest --runs 50
    python -m repro.simtest --runs 50 --start-seed 1000

Every scenario mixes every fault class and checks all eight invariants;
the seed also picks the engine (serial, depth 8, or depth 16).
``--without crash,drop`` leaves fault classes out.  Exit status is
non-zero iff any scenario violated an invariant; each failure prints
its one-line repro string.  ``--shrink`` additionally searches for a
smaller still-failing configuration before reporting.
"""

from __future__ import annotations

import argparse
import sys

from .runner import FAULT_CLASSES, SimConfig, fault_classes, run_scenario
from .shrinking import shrink


def _without(text: str) -> frozenset:
    try:
        return fault_classes(text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.simtest",
        description="Deterministic fault-simulation scenarios for SPEED.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="replay exactly one scenario with this seed")
    parser.add_argument("--runs", type=int, default=1,
                        help="number of seeds to sweep (ignored with --seed)")
    parser.add_argument("--start-seed", type=int, default=0,
                        help="first seed of the sweep")
    parser.add_argument("--steps", type=int, default=40,
                        help="scenario steps per seed")
    parser.add_argument("--shards", type=int, default=3,
                        help="cluster shards per scenario")
    parser.add_argument("--without", type=_without, default=frozenset(),
                        metavar="CLASS[,CLASS...]",
                        help="fault classes to leave out of the schedule: "
                             + ", ".join(FAULT_CLASSES))
    parser.add_argument("--trace", action="store_true",
                        help="print every trace event line")
    parser.add_argument("--shrink", action="store_true",
                        help="shrink failing configs before reporting")
    return parser


def configs(args) -> list[SimConfig]:
    """The scenarios one parsed command line names."""
    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = range(args.start_seed, args.start_seed + args.runs)
    return [
        SimConfig(seed=seed, steps=args.steps, shards=args.shards, without=args.without)
        for seed in seeds
    ]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    scenarios = configs(args)
    failures = 0
    for config in scenarios:
        result = run_scenario(config)
        print(result.summary())
        if args.trace:
            for line in result.trace:
                print(f"  {line}")
        if not result.ok:
            failures += 1
            for violation in result.violations:
                print(f"  {violation}", file=sys.stderr)
            if args.shrink:
                smaller, runs = shrink(config)
                print(
                    f"  shrunk to: {smaller.repro_string()} "
                    f"(steps={smaller.steps}, {runs} shrink runs)",
                    file=sys.stderr,
                )
    if failures:
        print(f"{failures}/{len(scenarios)} scenario(s) FAILED", file=sys.stderr)
        return 1
    print(f"all {len(scenarios)} scenario(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
