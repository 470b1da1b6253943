"""Calibration workflow for the native factors (DESIGN.md §2).

Each case study carries a *native factor*: how much faster the paper's
C/C++ library runs than our pure-Python substitute.  The factors shipped
in :mod:`repro.apps.registry` were derived with this utility: measure
the Python wall cost per byte on a reference workload, divide by the
published/na(t)ive per-byte cost of the original library, and round to a
defensible order of magnitude.

Run it after changing any case-study implementation::

    python -m repro.bench.calibration
"""

from __future__ import annotations

from .probe import timed
from .reporting import Column, Experiment, render
from ..apps import compress, mapreduce, pattern, sift
from ..workloads import generate_rules, packet_trace, synthetic_image, synthetic_text, synthetic_webpage


# Native per-byte costs on the paper's platform, from the paper's own
# numbers where derivable and from library documentation otherwise.
_NATIVE_NS_PER_BYTE = {
    # siftpp is famously slow: seconds for sub-megapixel images.
    "sift": 550.0,
    # zlib on prose at default level: ~18 MB/s inside an enclave.
    "compress": 55.0,
    # No stable native per-byte cost exists here: the scan is ruleset-
    # dominated, and the paper's per-packet cost is only known indirectly
    # (Fig. 5(c): baseline ≈ 316-412x the ~0.1-0.3 ms hit path, i.e.
    # tens of ms per packet).  Anchoring at the 256 B-1 KB band of our
    # measured scan times yields this effective per-byte figure; the
    # shipped factor 2.0 reproduces the paper's speedup range there.
    "pattern": 190_000.0,
    # a compact C++ MapReduce word count.
    "bow": 70.0,
}


def _measure(func, value) -> float:
    func(value)  # warm caches
    return timed(lambda: func(value))[2]


def run_calibration(seed: int = 7) -> list[dict]:
    """Measure all four case studies and suggest native factors."""
    rows = []

    image = synthetic_image(192, seed=seed)
    seconds = _measure(sift.sift, image)
    rows.append(_row("sift", f"192px image ({image.nbytes}B)", seconds,
                     image.nbytes, shipped=1.0))

    text = synthetic_text(64 * 1024, seed=seed)
    seconds = _measure(compress.deflate, text)
    rows.append(_row("compress", "64KB prose", seconds, len(text), shipped=110.0))

    rules = generate_rules(3700, seed=seed)
    compiled = pattern.CompiledRuleset(rules)
    packet = packet_trace(1, payload_size=1024, duplicate_fraction=0.0, seed=seed)[0]
    seconds = _measure(compiled.scan, packet)
    rows.append(_row("pattern", f"{len(packet)}B packet vs 3700 rules",
                     seconds, len(packet), shipped=2.0))

    page = synthetic_webpage(8000, seed=seed)
    seconds = _measure(mapreduce.bag_of_words, page)
    rows.append(_row("bow", f"{len(page)}B page", seconds, len(page), shipped=6.0))
    return rows


def _row(case: str, workload: str, seconds: float, n_bytes: int,
         shipped: float) -> dict:
    python_ns = seconds * 1e9 / max(1, n_bytes)
    native_ns = _NATIVE_NS_PER_BYTE[case]
    return dict(
        case=case,
        workload=workload,
        python_seconds=seconds,
        python_ns_per_byte=python_ns,
        assumed_native_ns_per_byte=native_ns,
        suggested_factor=python_ns / native_ns,
        shipped_factor=shipped,
    )


#: Declared like the CLI's experiments, but its own entry point: it
#: measures this host, so it has no place in ``python -m repro.bench all``.
CALIBRATION = Experiment("calibration", run_calibration, [(
    "Native-factor calibration", [
        Column("case", "case"),
        Column("workload", "workload"),
        Column("python_seconds", "python (s)"),
        Column("python_ns_per_byte", "py ns/B"),
        Column("assumed_native_ns_per_byte", "native ns/B"),
        Column("suggested_factor", "suggested factor"),
        Column("shipped_factor", "shipped factor"),
    ],
)])


if __name__ == "__main__":  # pragma: no cover - manual workflow
    print(render(CALIBRATION, CALIBRATION.rows()))
