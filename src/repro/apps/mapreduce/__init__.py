"""Case study 4: bag-of-words over an in-process MapReduce framework."""

from .bow import (
    FUNCTION_SIGNATURE,
    LIBRARY_FAMILY,
    LIBRARY_VERSION,
    bag_of_words,
    bow_mapper,
    strip_markup,
    tokenize_words,
)
from .framework import JobStats, MapReduceJob

__all__ = [
    "FUNCTION_SIGNATURE",
    "JobStats",
    "LIBRARY_FAMILY",
    "LIBRARY_VERSION",
    "MapReduceJob",
    "bag_of_words",
    "bow_mapper",
    "strip_markup",
    "tokenize_words",
]
