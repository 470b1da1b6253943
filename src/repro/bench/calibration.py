"""Calibration of the case studies' declared native costs (DESIGN.md §2).

Each case study links its function with a declared ``native_cost``
(:mod:`repro.apps.registry`): what one call takes on the paper's
platform, a coefficient times the work the input carries.  That
model is what the virtual clock charges for a computed call, and this
module is the one place that reads the host clock.  It runs each case
over the Fig. 5 sweep of input sizes and prints, per input, this host's
Python seconds, the model's seconds and their ratio: how many times
slower the pure-Python substitute runs here than the modelled native
library.  A ratio that holds across a case's sweep says the model's form
fits.  The ``*`` row is the reference input each committed coefficient
was scaled at (its provenance is in :mod:`repro.apps.registry`).

Run it after changing any case-study implementation::

    python -m repro.bench.calibration
"""

from __future__ import annotations

import statistics

from .harness import KB
from .probe import timed
from .reporting import EXPERIMENTS, Column, Experiment, human_size, render
from ..apps.registry import (
    bow_case_study,
    compress_case_study,
    pattern_case_study,
    sift_case_study,
)
from ..workloads import (
    generate_rules,
    packet_trace,
    synthetic_image,
    synthetic_text,
    synthetic_webpage,
)


def _sweeps(seed: int):
    """``(name, case, [(label, input, is reference)])`` per case study:
    the full Fig. 5 sizes, drawn as the Fig. 5 runners draw them."""
    fig5a, fig5b, fig5c, fig5d = (EXPERIMENTS[f"fig5{x}"].full for x in "abcd")
    yield "sift", sift_case_study(), [
        (f"{s}px", synthetic_image(s, seed=seed), s == 192) for s in fig5a["sizes"]
    ]
    yield "compress", compress_case_study(), [
        (human_size(s), synthetic_text(s, seed=seed), s == 64 * KB) for s in fig5b["sizes"]
    ]
    n_rules = fig5c["n_rules"]
    packets = [(packet_trace(1, payload_size=s, duplicate_fraction=0.0, seed=seed + s)[0],
                s == 1024) for s in fig5c["payload_sizes"]]
    yield "pattern", pattern_case_study(generate_rules(n_rules, seed=seed)), [
        (f"{human_size(len(p))} x {n_rules} rules", p, reference) for p, reference in packets
    ]
    yield "bow", bow_case_study(), [
        (f"{n}w", synthetic_webpage(n, seed=seed), n == 8000) for n in fig5d["word_counts"]
    ]


def _host_seconds(func, value, repeats: int) -> float:
    """Median Python seconds of ``func(value)`` after one warm-up call."""
    func(value)
    return statistics.median(timed(lambda: func(value))[2] for _ in range(repeats))


def run_calibration(repeats: int, points: int, seed: int = 7):
    """Time each case study's first ``points`` sweep inputs on this host
    against its declared model."""
    for name, case, inputs in _sweeps(seed):
        for label, value, reference in inputs[:points]:
            yield dict(case=name, input=label, host_s=_host_seconds(case.func, value, repeats),
                       model_s=case.native_cost(value), reference=reference)


#: Declared like the CLI's experiments, but its own entry point: it
#: measures this host, so it has no place in ``python -m repro.bench all``.
CALIBRATION = Experiment("calibration", run_calibration, [(
    "Native-cost calibration (host Python vs the declared model)", [
        Column("case", "case"),
        Column("input", "input"),
        Column("host_s", "host (s)"),
        Column("model_s", "model (s)"),
        Column("slowdown", "host/model", derive=lambda r: r["host_s"] / r["model_s"]),
        Column("reference", "ref", cell=lambda r: "*" if r["reference"] else ""),
    ],
)], full=dict(repeats=3, points=4))


if __name__ == "__main__":  # pragma: no cover - manual workflow
    print(render(CALIBRATION, CALIBRATION.rows()))
