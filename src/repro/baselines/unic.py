"""UNIC-style baseline: plaintext computation deduplication.

Tang & Yang's UNIC [16] — the closest prior system and the paper's main
conceptual comparison — deduplicates general computations but "mainly
operates in plaintext domain ... and does not consider the
confidentiality of the cached results, which are stored unencrypted".
This baseline reproduces that regime: tags are hashes of (func, input),
results live in a plain dictionary visible to the host adversary, and
integrity rests on a single system-wide MAC key shared by every
application.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..crypto.hashes import hmac_sha256, tagged_hash
from ..errors import IntegrityError
from ..sgx.cost_model import SimClock


@dataclass
class UnicStats:
    calls: int = 0
    hits: int = 0
    misses: int = 0


@dataclass
class UnicStore:
    """The plaintext result cache: tag -> (result bytes, MAC)."""

    mac_key: bytes
    entries: dict[bytes, tuple[bytes, bytes]] = field(default_factory=dict)

    def get(self, tag: bytes) -> bytes | None:
        record = self.entries.get(tag)
        if record is None:
            return None
        result, mac = record
        if hmac_sha256(self.mac_key, tag + result) != mac:
            raise IntegrityError("UNIC store entry failed its MAC check")
        return result

    def put(self, tag: bytes, result: bytes) -> None:
        self.entries.setdefault(
            tag, (result, hmac_sha256(self.mac_key, tag + result))
        )

    # Adversarial surface: the host can read and replace plaintext results.
    def leak(self, tag: bytes) -> bytes | None:
        record = self.entries.get(tag)
        return record[0] if record else None

    def overwrite(self, tag: bytes, result: bytes, mac: bytes) -> None:
        self.entries[tag] = (result, mac)


class UnicRuntime:
    """Minimal UNIC-like memoization wrapper for one function."""

    def __init__(
        self,
        store: UnicStore,
        func: Callable[[bytes], Any],
        encode: Callable[[Any], bytes],
        decode: Callable[[bytes], Any],
        clock: SimClock | None = None,
        native_cost: Callable[[Any], float] | None = None,
    ):
        self._store = store
        self._func = func
        self._encode = encode
        self._decode = decode
        self._clock = clock
        self._native_cost = native_cost
        self._func_id = tagged_hash(b"unic/func", repr(func).encode())
        self.stats = UnicStats()

    def call(self, input_bytes: bytes, input_value: Any) -> Any:
        self.stats.calls += 1
        tag = tagged_hash(b"unic/tag", self._func_id, input_bytes)
        if self._clock is not None:
            self._clock.charge_hash(len(input_bytes))
        cached = self._store.get(tag)
        if cached is not None:
            self.stats.hits += 1
            return self._decode(cached)
        self.stats.misses += 1
        result = self._func(input_value)
        if self._clock is not None and self._native_cost is not None:
            self._clock.charge_compute(self._native_cost(input_value))
        self._store.put(tag, self._encode(result))
        return result
