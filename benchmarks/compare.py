#!/usr/bin/env python3
"""Paired A/B of two revisions on the end-to-end benchmark, as one table.

    python3 benchmarks/compare.py REV_A REV_B [--workload W]... \\
        --pairs N --seconds S --seed-base K

Each side is exported into a temporary directory of its own: a revision
with ``git archive``, and ``WORKTREE`` (this checkout as it is) as its
tracked files with their uncommitted edits plus its untracked files that
are not ignored, so both sides run from a fresh copy alike.
``benchmarks/e2e/run.py --trace 0`` runs there, once per side per pair:
pair ``i`` uses seed ``K + i`` on both sides and alternates which side
goes first, so host drift falls on both alike.  Runs are sequential;
nothing else should be running.

One row per workload x end-to-end metric: the median of each side, the
difference as a share of the two medians' mean (so it reads the same
whichever side is faster), in how many pairs B was the better, the wider
of the two sides' inter-quartile spreads against the metric's bound in
``BENCHMARK.json``, and a verdict:

* ``better`` / ``worse`` — over ten pairs or more, B (resp. A) won at
  least nine pairs in ten, ties counting for neither, and the medians
  differ by more than the other side's own inter-quartile spread; or,
  over any number of pairs, B's median is worse than A's by more than
  the bound (``worse``).  Two of two pairs is no win share.
* ``unresolved`` — neither, and the spread exceeds the bound: the runs
  cannot tell.  Not the same as unchanged.
* ``same`` — neither, and the spread is inside the bound.

Exits non-zero only when some run was not ``correct`` or failed
operations; a ``worse`` row is for the reader to judge.

Stands beside ``repeat_gate.py`` until a benchmark-only change can fold
both into ``run.py`` (ROADMAP item 1(c)).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
WORKTREE = "WORKTREE"
WIN_SHARE = 0.9
#: Pairs the win-share rule needs before it may read better or worse.
MIN_PAIRS = 10


class Row(NamedTuple):
    median_a: float
    median_b: float
    delta: float      # (B - A) / mean of the two medians
    b_better: int     # pairs B won; ties count for neither side
    a_better: int
    spread: float     # wider inter-quartile spread of the two sides / that mean
    verdict: str


def spread_of(values: list[float]) -> float:
    """Distance between the quartiles (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def summarize(a: list[float], b: list[float], better: str, bound: float) -> Row:
    """The table's arithmetic for one workload x metric; ``a[i]`` and
    ``b[i]`` are the two sides of pair ``i``."""
    sign = 1.0 if better == "higher" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    scale = abs(median_a + median_b) / 2 or 1.0
    gain = sign * (median_b - median_a)            # > 0: B is the better side
    b_better = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    a_better = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    spread_a, spread_b = spread_of(a), spread_of(b)
    needed = WIN_SHARE * len(a) if len(a) >= MIN_PAIRS else float("inf")
    if b_better >= needed and gain > spread_a:
        verdict = "better"
    elif (a_better >= needed and -gain > spread_b) or -gain > bound * scale:
        verdict = "worse"
    elif max(spread_a, spread_b) > bound * scale:
        verdict = "unresolved"
    else:
        verdict = "same"
    return Row(median_a, median_b, (median_b - median_a) / scale, b_better, a_better,
               max(spread_a, spread_b) / scale, verdict)


def render(table: dict[str, dict[str, Row]], metrics: list[dict], pairs: int, sides: str) -> str:
    lines = [f"# {sides}; {pairs} pair(s) per workload; delta and spread relative to the pair mean",
             f"{'workload':22s}{'metric':16s}{'median A':>11s}{'median B':>11s}{'delta':>9s}"
             f"{'B better':>10s}{'spread':>8s}{'bound':>7s}  verdict"]
    for workload, rows in table.items():
        for metric in metrics:
            row = rows[metric["name"]]
            lines.append(
                f"{workload:22s}{metric['name']:16s}{row.median_a:>11.5g}{row.median_b:>11.5g}"
                f"{row.delta:>+9.1%}{f'{row.b_better}/{pairs}':>10s}{row.spread:>8.1%}"
                f"{metric['bound']:>7.0%}  {row.verdict}"
            )
    return "\n".join(lines)


def check_out(rev: str, into: Path) -> Path:
    """``into``, holding ``rev``'s committed files, or for ``WORKTREE``
    this checkout's files as they are (tracked ones with their edits, and
    untracked ones that are not ignored)."""
    into.mkdir()
    if rev == WORKTREE:
        listed = subprocess.run(
            ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"], check=True, stdout=subprocess.PIPE,
        ).stdout
        for name in sorted(set(filter(None, listed.decode().split("\0")))):
            source = ROOT / name
            if source.is_file():  # a tracked file deleted in the checkout is left out
                (into / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, into / name)
        return into
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        return json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    parser.add_argument("--seed-base", type=int, required=True,
                        help="pair i runs seed base + i; pick seeds not used while developing")
    args = parser.parse_args()
    metrics = declared["end_to_end"]
    table: dict[str, dict[str, Row]] = {}
    bad = 0
    with tempfile.TemporaryDirectory(prefix="speed-compare-") as tmp:
        trees = {"a": check_out(args.rev_a, Path(tmp) / "a"),
                 "b": check_out(args.rev_b, Path(tmp) / "b")}
        for workload in args.workload or workloads:
            values = {side: {m["name"]: [] for m in metrics} for side in trees}
            for pair in range(args.pairs):
                for side in ("ab", "ba")[pair % 2]:
                    result = run_once(trees[side], workload, args.seed_base + pair, args.seconds)
                    if not result["correct"] or result["failed"]:
                        bad += 1
                        print(f"BAD RUN {workload} side {side.upper()} seed {args.seed_base + pair}: "
                              f"correct={result['correct']} failed={result['failed']}", flush=True)
                    for m in metrics:
                        value = result["metrics"].get(m["name"], {}).get("value", float("nan"))
                        values[side][m["name"]].append(value)
                print(f"# {workload} pair {pair + 1}/{args.pairs} done", file=sys.stderr, flush=True)
            table[workload] = {
                m["name"]: summarize(values["a"][m["name"]], values["b"][m["name"]],
                                     m["better"], m["bound"])
                for m in metrics
            }
    print(render(table, metrics, args.pairs, f"A = {args.rev_a}, B = {args.rev_b}, "
                 f"{args.seconds:g} s runs, seeds {args.seed_base}.."
                 f"{args.seed_base + args.pairs - 1}"))
    if bad:
        print(f"{bad} run(s) not correct or with failed operations")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
