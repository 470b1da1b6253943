"""Comparison baselines: UNIC-style plaintext memoization and the
single-key / no-dedup runtime presets (DESIGN.md experiment index A1)."""

from .presets import (
    SYSTEM_WIDE_KEY,
    no_dedup_runtime_config,
    single_key_runtime_config,
)
from .unic import UnicRuntime, UnicStats, UnicStore

__all__ = [
    "SYSTEM_WIDE_KEY",
    "UnicRuntime",
    "UnicStats",
    "UnicStore",
    "no_dedup_runtime_config",
    "single_key_runtime_config",
]
