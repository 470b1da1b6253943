"""CSV and JSON export of experiment rows.

Rows are the plain dicts :meth:`Experiment.rows` returns — every
declared column, derived ones included — so the paper's figures can be
re-plotted with external tooling::

    python -m repro.bench fig6 --csv out/        # -> out/fig6.csv
    python -m repro.bench all --json out.json    # one document, see write_json
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
import platform
import subprocess
from typing import Mapping, Sequence


def _cell(value) -> object:
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return ";".join(f"{k}={_cell(v)}" for k, v in sorted(value.items()))
    return value


def rows_to_csv(rows: Sequence[dict]) -> str:
    """Render rows as CSV text (dict cells flatten to ``k=v;...``)."""
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow(_cell(value) for value in row.values())
    return buffer.getvalue()


def write_csv(rows: Sequence[dict], path: str | pathlib.Path) -> pathlib.Path:
    """Write rows to ``path`` (parent directories created); returns it."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(rows_to_csv(rows))
    return path


def _json_cell(value) -> object:
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {k: _json_cell(v) for k, v in sorted(value.items())}
    return value


def provenance(quick: bool) -> dict:
    """What produced a JSON document.  No date: the file should not
    change when nothing did."""
    import numpy

    def git(*argv) -> str:
        done = subprocess.run(
            ["git", "-C", str(pathlib.Path(__file__).parent), *argv],
            capture_output=True, text=True,
        )
        return done.stdout.strip() if done.returncode == 0 else "unknown"

    status = git("status", "--porcelain")
    return {
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": status != "unknown" and bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "quick": quick,
    }


def write_json(experiments: Mapping[str, Sequence[dict]], path: str | pathlib.Path,
               quick: bool = False) -> pathlib.Path:
    """Write one document, ``{"provenance": {...}, "experiments": {name:
    rows}}``, to ``path``; returns it.  Numbers stay numbers; bytes
    become hex strings."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "provenance": provenance(quick),
        "experiments": {
            name: [{key: _json_cell(value) for key, value in row.items()} for row in rows]
            for name, rows in experiments.items()
        },
    }
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path
