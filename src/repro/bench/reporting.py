"""The experiment table: how an experiment is declared, and its one renderer.

An :class:`Experiment` is declared once — CLI name, printed tables,
columns, full and ``--quick`` levels, and a ``run(**levels)`` yielding
plain ``dict`` rows — and registered in :data:`EXPERIMENTS`, which the
CLI, the tests and ``all`` iterate.  A :class:`Column` is one of three
kinds: *stored* (the runner puts it in the row), *probed* (a formula
over the row's :class:`~repro.bench.probe.Delta` — which clocks and
counters the number is made of is stated here, not in the runner) or
*derived* (a formula over the finished row).

Timing convention: ``sim`` columns are seconds on the calibrated
virtual clock (the series whose *shape* should match the paper);
``wall`` columns are honest Python wall-clock seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence


@dataclass(frozen=True)
class Column:
    key: str | None = None            # row key in CSV/JSON (None: printed only)
    header: str | None = None         # printed header (None: exported only)
    probe: Callable | None = None     # value = probe(delta)
    derive: Callable | None = None    # value = derive(row)
    cell: Callable | None = None      # printed cell = cell(row); default row[key]


@dataclass(frozen=True)
class Experiment:
    name: str                         # CLI name
    run: Callable[..., Iterable[dict]]
    tables: Sequence[tuple[str, Sequence[Column]]]  # printed (title, columns)
    full: dict = field(default_factory=dict)   # levels of the full run
    quick: dict = field(default_factory=dict)  # --quick overrides of them

    @property
    def columns(self) -> list[Column]:
        """The exported columns, in declaration order."""
        seen: dict[str, Column] = {}
        for _title, columns in self.tables:
            for column in columns:
                if column.key is not None:
                    seen.setdefault(column.key, column)
        return list(seen.values())

    def levels(self, quick: bool = False, **overrides) -> dict:
        return {**self.full, **(self.quick if quick else {}), **overrides}

    def rows(self, quick: bool = False, **overrides) -> list[dict]:
        """Run at the full (or ``--quick``) levels, ``overrides`` applied,
        and finish each row: stored and probed columns first, then the
        derived ones in declaration order."""
        columns = self.columns
        finished = []
        for raw in self.run(**self.levels(quick, **overrides)):
            delta = raw.get("probe")
            row = {
                c.key: c.probe(delta) if c.probe else raw[c.key]
                for c in columns if not c.derive
            }
            for c in columns:
                if c.derive:
                    row[c.key] = c.derive(row)
            finished.append({c.key: row[c.key] for c in columns})
        return finished


#: CLI name -> experiment, in the order ``all`` runs them.
EXPERIMENTS: dict[str, Experiment] = {}


def experiment(name: str, title: str, columns: Sequence[Column], *,
               full: dict | None = None, quick: dict | None = None,
               more_tables: Sequence[tuple[str, Sequence[Column]]] = ()):
    """Decorator: declare and register the experiment a runner regenerates."""
    def register(run):
        EXPERIMENTS[name] = Experiment(
            name, run, [(title, columns), *more_tables], full or {}, quick or {},
        )
        return run
    return register


def render(experiment: Experiment, rows: Sequence[dict], quick: bool = False) -> str:
    """The experiment's printed tables (titles may quote a level)."""
    levels = experiment.levels(quick)
    return "\n\n".join(
        format_table(
            title.format(**levels),
            [c.header for c in columns if c.header],
            [[c.cell(row) if c.cell else row[c.key] for c in columns if c.header]
             for row in rows],
        )
        for title, columns in experiment.tables
    )


def format_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width table with a title rule."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * len(title)]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.1f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def human_size(n_bytes: int) -> str:
    if n_bytes >= 1 << 20:
        return f"{n_bytes / (1 << 20):.0f}MB"
    if n_bytes >= 1 << 10:
        return f"{n_bytes / (1 << 10):.0f}KB"
    return f"{n_bytes}B"


# -- printed-cell formats ------------------------------------------------------
def size_cell(key: str) -> Callable[[dict], str]:
    return lambda row: human_size(row[key])


def yes_cell(key: str) -> Callable[[dict], str]:
    return lambda row: "yes" if row[key] else "NO"


def percent_cell(key: str) -> Callable[[dict], str]:
    return lambda row: f"{row[key]:.0%}"


def times_cell(key: str) -> Callable[[dict], str]:
    return lambda row: f"{row[key]:.2f}x"
