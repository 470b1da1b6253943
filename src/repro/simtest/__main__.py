"""CLI for the simulation harness.

Replay one seed::

    python -m repro.simtest --seed 7

Sweep many seeds (CI / nightly)::

    python -m repro.simtest --runs 50
    python -m repro.simtest --runs 50 --start-seed 1000

Exit status is non-zero iff any scenario violated an invariant; each
failure prints its one-line repro string.  ``--shrink`` additionally
searches for a smaller still-failing configuration before reporting.
"""

from __future__ import annotations

import argparse
import sys

from .runner import SimConfig, run_scenario
from .shrinking import shrink


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
    parser.add_argument("--pipeline", action="store_true",
                        help="drive the workload through the pipelined "
                             "engine (depth 8, coalescing on) and check "
                             "the coalescing invariant")
    parser.add_argument("--pipeline-depth", type=int, default=8,
                        help="engine submit window for --pipeline runs "
                             "(the --adaptive invariant replays at 1)")
    parser.add_argument("--adaptive", action="store_true",
                        help="size every engine round with the AIMD "
                             "adaptive depth controller (implies "
                             "--pipeline) and check the adaptive-"
                             "identity invariant against a depth-1 "
                             "replay")
    parser.add_argument("--power-fail", action="store_true",
                        help="run durable (WAL-backed) shards and inject "
                             "power failures with full state loss, "
                             "checking the recovery invariant")
    parser.add_argument("--migrate", action="store_true",
                        help="stream live topology changes (joins/drains) "
                             "through the scenario, crash migration "
                             "participants mid-range, and check the "
                             "single-owner invariant (implies durable "
                             "shards)")
    parser.add_argument("--trace", action="store_true",
                        help="print every trace event line")
    parser.add_argument("--shrink", action="store_true",
                        help="shrink failing configs before reporting")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.start_seed, args.start_seed + args.runs))

    failures = 0
    for seed in seeds:
        config = SimConfig(
            seed=seed, steps=args.steps, shards=args.shards,
            pipeline=args.pipeline, pipeline_depth=args.pipeline_depth,
            adaptive=args.adaptive, power_fail=args.power_fail,
            migrate=args.migrate,
        )
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
        print(f"{failures}/{len(seeds)} scenario(s) FAILED", file=sys.stderr)
        return 1
    print(f"all {len(seeds)} scenario(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
