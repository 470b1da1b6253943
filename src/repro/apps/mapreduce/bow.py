"""Bag-of-words over MapReduce — the paper's Case 4 computation.

``bow_mapper(·)`` is "customized from the Mapper(·) function of the
mapreduce library": it tokenises a document into lowercase word counts.
The deduplicable unit is :func:`bag_of_words`, which runs the full job
over one document (the paper deduplicates per input document — web pages
recur across crawls).
"""

from __future__ import annotations

import re
from typing import Iterable

from .framework import MapReduceJob

LIBRARY_FAMILY = "mapreduce"
LIBRARY_VERSION = "1.0.0"
FUNCTION_SIGNATURE = "dict bag_of_words(str document)"

_TOKEN = re.compile(r"[a-z0-9']+")
_MARKUP = re.compile(r"<[^>]*>")


def strip_markup(document: str) -> str:
    """Remove HTML-ish tags (the CommonCrawl pages are WET-style text,
    but our synthetic pages keep light markup to exercise this path)."""
    return _MARKUP.sub(" ", document)


def tokenize_words(document: str) -> list[str]:
    return _TOKEN.findall(strip_markup(document).lower())


def bow_mapper(document: str) -> Iterable[tuple[str, int]]:
    """Emit (word, 1) pairs for one document."""
    for word in tokenize_words(document):
        yield word, 1


def _sum_reducer(_word: str, counts: list[int]) -> int:
    return sum(counts)


def bag_of_words(document: str) -> dict[str, int]:
    """Word-count one document through the MapReduce framework.

    Splitting the document into lines gives the job real map
    parallelism structure (each line is one map record).
    """
    job = MapReduceJob(
        mapper=bow_mapper,
        reducer=_sum_reducer,
        combiner=_sum_reducer,
        n_partitions=4,
    )
    lines = [line for line in document.splitlines() if line.strip()]
    if not lines:
        return {}
    counts = job.run(lines)
    return dict(sorted(counts.items()))
