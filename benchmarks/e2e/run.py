#!/usr/bin/env python3
"""Two-clock end-to-end benchmark of the SPEED reproduction.

One workload, as the benchmark driver calls it (last stdout line is the
result object; ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer ones)::

    python3 benchmarks/e2e/run.py --workload hit1k_call --seed 1 --seconds 12 --trace 0

Every workload, both kinds of run, each in its own fresh subprocess,
with every metric printed by name and unit::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--quick] [--out DIR]

``--out DIR`` also writes ``results.json`` (provenance, one row per
workload x pass, raw per-request latencies) and the traced runs' span
dumps ``spans-<workload>.jsonl``.  ``--check-repeat`` runs the quick
size twice with one seed and once with another and fails unless every
virtual-clock and count metric repeats bit for bit under the same seed.

Exits non-zero when any value differs from direct computation, any
check is violated, or the program under test is not in the checkout.
See README.md beside this file for every metric's definition.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: {ROOT / 'src' / 'repro'} not found; the benchmark measures that package")
sys.path.insert(0, str(ROOT / "src"))

from measure import Run, log, measure_end_to_end, measure_layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
QUICK_SECONDS = 0.5

#: Per-layer metrics read off the host's clock; everything else is a
#: count or a virtual-clock figure and must repeat exactly (--check-repeat).
HOST_TIMED = frozenset({
    "session.wall_tail_ms", "session.cpu_ops_per_s", "session.host_speed",
    "session.trace_overhead_share",
    "session.self_time_residual_share", "crypto.host_mb_per_s", "crypto.self_share",
    "durable.checkpoint_wall_ms_max", "durable.recover_wall_s", "obs.tracing_on_slowdown",
})


def host_timed(name: str) -> bool:
    return (
        name in HOST_TIMED or "self_ms" in name
        or name in ("wall_ops_per_s", "wall_p50_ms", "setup_s", "peak_rss_mb")
    )


# -- one workload, in this process ---------------------------------------------------

def run_one(args) -> int:
    spec = WORKLOADS[args.workload]
    seconds = args.seconds
    if args.quick:
        spec, seconds = spec.quick(), min(seconds, QUICK_SECONDS)
    run = (measure_layers if args.trace else measure_end_to_end)(spec, args.seed, seconds)
    log(f"# {spec.name} seed={args.seed} seconds={seconds} trace={args.trace} "
        f"inputs={run.fingerprint}")
    for name, value in run.notes.items():
        log(f"{name:40s} {value:>16.6g}")
    for name, value in run.metrics.items():
        log(f"{name:40s} {value:>16.6g} {UNITS[name]}")
    verdict = run.verdict
    log(f"{'failed_op_share':40s} {verdict.failed / verdict.attempted:>16.6g} ratio "
        f"({verdict.failed} of {verdict.attempted})")
    if args.out:
        write_detail(Path(args.out), spec.name, args.trace, run)
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in run.metrics.items()
        },
    }), flush=True)
    return 0 if verdict.correct else 1


def write_detail(out: Path, workload: str, trace: int, run: Run) -> None:
    """What the parent folds into results.json, and the span dump."""
    out.mkdir(parents=True, exist_ok=True)
    detail = {
        phase: {
            "passes": [dataclasses.asdict(p) for p in window.passes],
            "wall_ms_per_request": window.wall_ms,
            "host_speed_per_request": window.speeds,
            "sim_us_per_request": window.sim_us,
            "prefix_ops": window.prefix_ops,
            "counter_deltas": window.prefix_counters,
        }
        for phase, window in run.windows.items()
    }
    (out / f"detail-{workload}-trace{trace}.json").write_text(json.dumps(detail))
    if run.recorder is not None:
        run.recorder.dump(out / f"spans-{workload}.jsonl")


# -- every workload, each in a fresh subprocess ----------------------------------------

def spawn(workload: str, trace: int, seed: int, args) -> dict:
    """Run one workload in its own interpreter; echo what it printed and
    return its result object (plus its exit code)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.quick:
        command.append("--quick")
    if args.out:
        command += ["--out", args.out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(done.stdout, end="")
        sys.exit(f"run.py: {workload} (trace {trace}) printed no result; exit {done.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    result["exit"] = done.returncode
    header = next(line for line in lines if line.startswith("# "))
    result["inputs"] = header.rpartition("inputs=")[2]
    return result


def run_all(args, seed: int) -> dict[str, dict]:
    """``{workload: {"inputs_fingerprint", "ok", "attempted", "failed",
    "metrics"}}`` with the untraced run's end-to-end and the traced run's
    per-layer metrics."""
    table = {}
    for workload in WORKLOADS:
        runs = [spawn(workload, trace, seed, args) for trace in (0, 1)]
        table[workload] = {
            "inputs_fingerprint": runs[0]["inputs"],
            "ok": all(r["correct"] and r["exit"] == 0 for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {k: v["value"] for r in runs for k, v in r["metrics"].items()},
        }
    return table


def provenance(args) -> dict:
    import numpy

    from repro.sgx.cost_model import CostParams

    def git(*argv) -> str:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *argv], capture_output=True, text=True
        )
        return done.stdout.strip() if done.returncode == 0 else "unknown"

    status = git("status", "--porcelain")
    return {
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": status != "unknown" and bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": QUICK_SECONDS if args.quick else args.seconds,
        "quick": args.quick,
        "cost_params_digest": hashlib.sha256(
            repr(sorted(dataclasses.asdict(CostParams()).items())).encode()
        ).hexdigest()[:16],
        "wall_date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def write_results(args, table: dict[str, dict]) -> None:
    """results.json: provenance, the aggregate per workload, and one row
    per workload x phase x pass with a fixed column set; the children's
    detail files (raw per-request latencies) are folded in and removed."""
    out = Path(args.out)
    rows, raw = [], {}
    for workload in table:
        for trace in (0, 1):
            path = out / f"detail-{workload}-trace{trace}.json"
            detail = json.loads(path.read_text())
            path.unlink()
            for phase, data in detail.items():
                for index, row in enumerate(data.pop("passes")):
                    rows.append({"workload": workload, "phase": phase, "pass": index, **row})
                raw[f"{workload}/{phase}"] = data
    (out / "results.json").write_text(json.dumps({
        "provenance": provenance(args),
        "aggregate": table,
        "pass_columns": [
            "workload", "phase", "pass", "ops", "requests", "wall_s", "ref_s", "cpu_s"
        ],
        "passes": rows,
        "raw": raw,
    }, indent=1))


def print_summary(table: dict[str, dict]) -> None:
    log("\n# summary: one column per workload")
    log(f"{'metric':40s} {'unit':>8s} " + " ".join(f"{w[:20]:>20s}" for w in table))
    for name in UNITS:
        cells = " ".join(f"{table[w]['metrics'][name]:>20.6g}" for w in table)
        log(f"{name:40s} {UNITS[name]:>8s} {cells}")
    cells = " ".join(f"{t['failed'] / t['attempted']:>20.6g}" for t in table.values())
    log(f"{'failed_op_share':40s} {'ratio':>8s} {cells}")


def check_repeat(args) -> int:
    """Same seed twice: every count and virtual-clock metric identical.
    Another seed once: different inputs, oracle still passing."""
    args.quick, args.out = True, None
    first, again = run_all(args, args.seed), run_all(args, args.seed)
    other = run_all(args, args.seed + 1)
    bad = 0
    for workload in WORKLOADS:
        for name, value in first[workload]["metrics"].items():
            if not host_timed(name) and again[workload]["metrics"][name] != value:
                bad += 1
                log(f"NOT REPEATABLE {workload} {name}: {value!r} then "
                    f"{again[workload]['metrics'][name]!r}")
        if first[workload]["inputs_fingerprint"] == other[workload]["inputs_fingerprint"]:
            bad += 1
            log(f"SEED IGNORED {workload}: seeds {args.seed} and {args.seed + 1} gave the same inputs")
    ok = all(t["ok"] for run in (first, again, other) for t in run.values())
    log(f"\ncheck-repeat: {bad} difference(s) under seed {args.seed} run twice; oracle "
        f"{'passed' if ok else 'FAILED'} on seeds {args.seed} and {args.seed + 1}")
    return 0 if ok and not bad else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(DECLARED["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="seconds-long sizes (smoke test); numbers are not comparable")
    parser.add_argument("--out", help="directory for results.json and span dumps")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args()
    if args.check_repeat:
        return check_repeat(args)
    if args.workload:
        return run_one(args)
    table = run_all(args, args.seed)
    print_summary(table)
    if args.out:
        write_results(args, table)
    return 0 if all(t["ok"] for t in table.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
