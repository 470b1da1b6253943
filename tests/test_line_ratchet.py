"""The line ratchet: ``src/repro`` may not grow past a committed ceiling.

The same behaviour and the same numbers from the least code is one of
the project's four aims, so the package's size is a tested figure.
``LINE_CEILING`` is the physical line count of ``src/repro/**/*.py`` as
of the last change that moved it.  A change that deletes lines lowers it
to the new count; a change that has to add lines raises it and gives
the reason in CHANGES.md.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Physical lines (newlines, as ``wc -l`` counts them) of every
#: ``src/repro/**/*.py``.
LINE_CEILING = 20_048


def test_src_repro_stays_under_its_line_ceiling():
    count = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    assert count <= LINE_CEILING, (
        f"src/repro is {count} lines, {count - LINE_CEILING} over its ceiling of "
        f"{LINE_CEILING} (LINE_CEILING in tests/test_line_ratchet.py).  Delete lines, "
        f"or raise the ceiling and give the reason in CHANGES.md.  A change that "
        f"deletes lines lowers the ceiling to its new count."
    )
