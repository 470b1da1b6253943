"""CLI entry point: ``python -m repro.bench <experiment> [--quick] [--csv DIR] [--json PATH]``.

Experiments: fig5a fig5b fig5c fig5d table1 fig6 a1 a2 a3 a4 a5 a6 a7 e9 e10
batch cluster pipeline durable migrate adaptive reshard all
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from . import EXPERIMENTS, render
from .export import write_csv, write_json


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    parser.add_argument("--quick", action="store_true", help="reduced sizes/trials")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write <experiment>.csv files into DIR")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write one JSON document (provenance + "
                             "every experiment's rows) to PATH")
    args = parser.parse_args(argv)

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    tables = {}
    for name in names:
        tables[name] = EXPERIMENTS[name].rows(quick=args.quick)
        if args.csv is not None:
            write_csv(tables[name], pathlib.Path(args.csv) / f"{name}.csv")
        print(render(EXPERIMENTS[name], tables[name], quick=args.quick))
        print()
    if args.json is not None:
        write_json(tables, args.json, quick=args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
