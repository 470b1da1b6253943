#!/bin/sh
# Repo check: lint + the tier-1 test suite.
#
#   ./check.sh            # lint + tests
#   ./check.sh --no-lint  # tests only
#
# Both stages always run; the script exits non-zero if either fails,
# and lint violations alone are enough to fail it.  Nothing here writes
# a tracked file: on a clean tree `git status --porcelain` is still
# empty afterwards.  (The bench experiments' acceptance bars are tier-1
# tests; `python -m repro.bench all --quick` is CI's bench-smoke job.)
set -u
cd "$(dirname "$0")"

status=0

# Build artifacts must never be committed: fail if any tracked file is
# a compiled bytecode file (they once were, and they bloat every diff).
echo "== tracked bytecode guard =="
if git ls-files | grep -q '\.pyc$'; then
    echo "tracked .pyc files found — 'git rm --cached' them:" >&2
    git ls-files | grep '\.pyc$' >&2
    status=1
fi

if [ "${1:-}" != "--no-lint" ]; then
    echo "== ruff =="
    if command -v ruff >/dev/null 2>&1; then
        ruff check src tests examples || status=1
    elif python -m ruff --version >/dev/null 2>&1; then
        python -m ruff check src tests examples || status=1
    else
        echo "ruff not installed; skipping lint (CI runs it)"
    fi
fi

echo "== tier-1 tests =="
tier1_start=$(date +%s)
PYTHONPATH=src python -m pytest -x -q || status=1
echo "tier-1 wall time: $(( $(date +%s) - tier1_start )) s"

# End-to-end benchmark determinism gate (benchmarks/e2e, see its README):
# two runs at equal seed must agree on every virtual-clock and count
# metric, so a wall-clock-only change that moves one of them fails here.
# benchmarks/repeat_gate.py runs `run.py --check-repeat` as a fixed amount
# of work and says what it forgives.  (`python -m pytest benchmarks/e2e`
# is not wired in: its `--quick` window is a length of time, and on a
# program this fast the reduced mix2k workload drifts out of its
# store-hit band — a benchmark-side fix, tracked in ROADMAP item 1(b).)
echo "== e2e benchmark repeat check (virtual clock + counts) =="
python3 benchmarks/repeat_gate.py || status=1

# A ~30s deterministic simulation smoke: three fixed seeds through the
# fault-simulation harness (drops, duplicates, delays, corruption,
# crashes, partitions).  Any invariant violation prints a one-line
# `--seed N` repro string and fails the check.
echo "== sim smoke (seeds 3..5) =="
PYTHONPATH=src python -m repro.simtest --runs 3 --start-seed 3 --steps 25 \
    || status=1

# The smokes in this block only say "no invariant broke"; this says
# "no trace moved": seeds 1..5 in each of the five modes against the
# digests pinned in the test file (which says how to re-pin one).
echo "== sim smoke, pinned trace digests (seeds 1..5 x 5 modes) =="
PYTHONPATH=src python -m pytest -q tests/simtest/test_pinned_digests.py \
    || status=1

echo "== sim smoke, pipelined engine (seeds 3..5) =="
PYTHONPATH=src python -m repro.simtest --runs 3 --start-seed 3 --steps 25 \
    --pipeline || status=1

# Durable-store smoke: one fixed power-fail schedule through the WAL
# recovery invariant (every acked PUT before a crash served after it).
echo "== sim smoke, power-fail recovery (seed 3) =="
PYTHONPATH=src python -m repro.simtest --runs 1 --start-seed 3 --steps 25 \
    --power-fail || status=1

# Migration smoke: three fixed seeds streaming live joins/drains (with
# power failures on migration participants) through the single-owner
# invariant.
echo "== sim smoke, online resharding (seeds 3..5) =="
PYTHONPATH=src python -m repro.simtest --runs 3 --start-seed 3 --steps 25 \
    --migrate || status=1

# Adaptive-depth smoke: the same walk with the AIMD controller sizing
# the engine window; invariant 8 replays each schedule at depth 1 and
# requires byte-identical per-call results.
echo "== sim smoke, adaptive depth (seeds 3..5) =="
PYTHONPATH=src python -m repro.simtest --runs 3 --start-seed 3 --steps 25 \
    --pipeline --adaptive || status=1

if [ "$status" -ne 0 ]; then
    echo "CHECK FAILED" >&2
fi
exit "$status"
