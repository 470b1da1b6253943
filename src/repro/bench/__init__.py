"""Benchmark harness regenerating every table and figure of the paper.

``python -m repro.bench <experiment>`` prints the corresponding rows;
see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
recorded paper-vs-reproduction comparison.  ``EXPERIMENTS`` is the one
registry (CLI name -> declared experiment) the CLI and the tests iterate.
"""

from . import harness as _declarations  # noqa: F401 - fills the registry
from .reporting import EXPERIMENTS, render

__all__ = ["EXPERIMENTS", "render"]
