"""Deployment presets for the three comparison regimes of the paper.

* ``no_dedup_runtime_config`` — "without SPEED", the Fig. 5 baseline:
  the marked function simply executes (no GET/PUT, no crypto).
* ``single_key_runtime_config`` — the basic design of §III-B: one
  system-wide key, still enclave-protected.

The main design of §III-C needs no preset: it is ``RuntimeConfig``'s
default scheme.
"""

from __future__ import annotations

from ..core.runtime import RuntimeConfig
from ..core.scheme import SingleKeyScheme

SYSTEM_WIDE_KEY = b"speed-system-key"[:16]


def no_dedup_runtime_config(app_id: str) -> RuntimeConfig:
    """The "without SPEED" baseline of Fig. 5."""
    return RuntimeConfig(app_id=app_id, dedup_enabled=False)


def single_key_runtime_config(app_id: str, key: bytes = SYSTEM_WIDE_KEY) -> RuntimeConfig:
    """The basic single-key design of §III-B."""
    return RuntimeConfig(app_id=app_id, scheme=SingleKeyScheme(key))
