#!/bin/sh
# Repo check: lint + the tier-1 test suite + the benchmark repeat gate.
#
#   ./check.sh            # lint + tests
#   ./check.sh --no-lint  # tests only
#
# Every stage always runs; the script exits non-zero if any fails, and
# lint violations alone are enough to fail it.  Nothing here writes a
# tracked file: on a clean tree `git status --porcelain` is still empty
# afterwards.  The simulation smoke is a tier-1 test and is not run again
# here: tests/simtest/test_pinned_digests.py runs seeds 1..15 at 25
# steps (every fault class and all eight invariants in each; seed % 3
# picks the engine, five seeds each) and requires `ok` and the pinned
# trace digest; CI's sim-sweep jobs run the 200- and 800-schedule
# sweeps.  (The
# bench experiments' acceptance bars are tier-1 tests too; CI's
# bench-smoke job runs `python -m repro.bench all --quick`.)
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

# Per-directory test time is summed from pytest's --durations=0 report
# (setup + call + teardown of every test under each top-level tests/
# directory); the report itself is kept out of the console.
echo "== tier-1 tests =="
tier1_start=$(date +%s)
log=$(mktemp)
failed=$(mktemp)
{ PYTHONPATH=src python -m pytest -x -q --durations=0 --durations-min=0 \
    || echo "pytest failed" >"$failed"; } 2>&1 \
    | tee "$log" | grep -Ev '^[0-9.]+s (setup|call|teardown) '
[ -s "$failed" ] && status=1
echo "tier-1 wall time: $(( $(date +%s) - tier1_start )) s"
echo "tier-1 test time per directory:"
awk '$1 ~ /^[0-9.]+s$/ && $2 ~ /^(setup|call|teardown)$/ {
        split($3, part, "/")
        dir = (part[2] ~ /\.py/) ? "tests/*.py" : "tests/" part[2]
        total[dir] += $1 + 0
     }
     END { for (dir in total) printf "  %-20s %7.1f s\n", dir, total[dir] }' "$log" | sort
rm -f "$log" "$failed"

# End-to-end benchmark determinism gate (benchmarks/e2e, see its README):
# two runs at equal seed must agree on every virtual-clock and count
# metric, so a wall-clock-only change that moves one of them fails here.
# benchmarks/repeat_gate.py runs `run.py --check-repeat` as fixed work.
# (`python -m pytest benchmarks/e2e` is not wired in: its `--quick` window
# is a length of time, and on a program this fast the reduced mix2k workload
# drifts out of its store-hit band — ROADMAP item 17(b), a benchmark-side fix.)
echo "== e2e benchmark repeat check (virtual clock + counts) =="
python3 benchmarks/repeat_gate.py || status=1

if [ "$status" -ne 0 ]; then
    echo "CHECK FAILED" >&2
fi
exit "$status"
