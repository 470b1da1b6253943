"""CI gate around ``benchmarks/e2e/run.py --check-repeat``.

"A wall-clock-only change leaves every virtual-clock and count metric
where it was" is only checkable if two runs of one tree agree on them,
which is what ``--check-repeat`` tests.  This wrapper runs it as a fixed
amount of work (``--seconds 0``: each window is exactly the workload's
``sim_requests``, however fast the host or the program is) and forgives
nothing: any ``NOT REPEATABLE`` line, violation or oracle failure fails.
(It used to forgive ``engine.overlap_share`` differing in its last
digits.  Every virtual-clock charge is now a pure function of the
inputs, compute included: it is each function's declared ``native_cost``,
never host time.  So ``PipelineEngine``'s cycle deltas, and the figure,
repeat exactly.)

Delete this file once fixed work is the benchmark's own default for its
gates (a benchmark-only change, ROADMAP item 1(b)).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "e2e" / "run.py"


def main() -> int:
    done = subprocess.run(
        [sys.executable, str(RUN), "--check-repeat", "--seconds", "0", *sys.argv[1:]],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    lines = done.stdout.splitlines()
    verdict = lines[-1] if lines else "run.py printed nothing"
    real = [
        line for line in lines
        if line.startswith(("NOT REPEATABLE", "VIOLATION", "SEED IGNORED", "FAILED"))
    ]
    if "oracle passed" not in verdict:
        real.append(verdict)
    for line in real:
        print(line)
    print(verdict)
    return 1 if real else 0


if __name__ == "__main__":
    sys.exit(main())
