"""CI gate around ``benchmarks/e2e/run.py --check-repeat``.

"A wall-clock-only change leaves every virtual-clock and count metric
where it was" is only checkable if two runs of one tree agree on them,
which is what ``--check-repeat`` tests.  This wrapper runs it as a fixed
amount of work (``--seconds 0``: each window is exactly the workload's
``sim_requests``, however fast the host or the program is) and forgives
one thing the benchmark reports and the program cannot yet avoid: a
derived float that differs in its last digits.  ``PipelineEngine`` takes
its per-round cycle deltas from a ``SimClock`` that also accumulates
host-timed compute, so ``(clock + x) - clock`` rounds differently from
run to run and ``engine.overlap_share`` wobbles by ~1e-16 in about half
of all pairs of runs, at the parent commit as well.  Anything larger, any
count, any oracle failure still fails.

Delete this file once the benchmark compares derived floats with a
tolerance itself (a benchmark-only change).
"""

from __future__ import annotations

import math
import re
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "e2e" / "run.py"
DIFFERENCE = re.compile(r"^NOT REPEATABLE (\S+) (\S+): (\S+) then (\S+)$")
LAST_DIGITS = 1e-12


def main() -> int:
    done = subprocess.run(
        [sys.executable, str(RUN), "--check-repeat", "--seconds", "0", *sys.argv[1:]],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    lines = done.stdout.splitlines()
    verdict = lines[-1] if lines else "run.py printed nothing"
    real, forgiven = [], []
    for line in lines:
        found = DIFFERENCE.match(line)
        if found is None:
            if line.startswith(("VIOLATION", "SEED IGNORED", "FAILED")):
                real.append(line)
            continue
        # Counts differ by at least 1, far outside this tolerance.
        close = math.isclose(float(found[3]), float(found[4]), rel_tol=LAST_DIGITS)
        (forgiven if close else real).append(line)
    if "oracle passed" not in verdict:
        real.append(verdict)
    for line in forgiven:
        print(f"forgiven (last digits only): {line}")
    for line in real:
        print(line)
    print(verdict)
    return 1 if real else 0


if __name__ == "__main__":
    sys.exit(main())
