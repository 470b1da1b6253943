"""DoS mitigation: per-application PUT quotas (paper §III-D).

"A malicious application may issue a large number of 'update' requests
for polluting the ResultStore with useless results.  To defend against
it, we can adopt the rate-limiting strategy into SPEED, which involves a
quota mechanism to limit the cache space for each application."

Two limits are enforced per ``app_id``: resident bytes and a token-bucket
rate on PUT operations (the bucket refills per simulated second on the
platform clock, keeping the whole mechanism deterministic).

What is metered is what an application PUT over the wire: admitted on
arrival, released on eviction or discard, re-credited when the entry
comes back from a snapshot, a checkpoint or the write-ahead log — so an
app id's usage is the same before and after a restart or power failure.
Entries that arrive by *hand-off* (master sync, migration, anti-entropy)
are unmetered on every one of those paths: the shipped tuple carries no
contributor, so the store files them under the reserved id ``"sync"``
and never admits, releases or restores usage for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import QuotaExceededError
from ..sgx.cost_model import SimClock


@dataclass(frozen=True)
class QuotaPolicy:
    """Limits applied to each application individually."""

    max_bytes_per_app: int = 1 << 30
    max_entries_per_app: int = 1 << 20
    puts_per_second: float = float("inf")
    burst: int = 1 << 16


@dataclass
class _AppUsage:
    bytes_used: int = 0
    entries: int = 0
    tokens: float = 0.0
    last_refill_s: float = 0.0


class QuotaManager:
    """Tracks usage and admits or rejects PUTs."""

    def __init__(self, policy: QuotaPolicy, clock: SimClock):
        self.policy = policy
        self._clock = clock
        self._usage: dict[str, _AppUsage] = {}
        self.rejections = 0

    def _get(self, app_id: str) -> _AppUsage:
        usage = self._usage.get(app_id)
        if usage is None:
            usage = _AppUsage(tokens=float(self.policy.burst),
                              last_refill_s=self._clock.elapsed_seconds())
            self._usage[app_id] = usage
        return usage

    def _refill(self, usage: _AppUsage) -> None:
        now = self._clock.elapsed_seconds()
        if self.policy.puts_per_second != float("inf"):
            usage.tokens = min(
                float(self.policy.burst),
                usage.tokens + (now - usage.last_refill_s) * self.policy.puts_per_second,
            )
        usage.last_refill_s = now

    def admit_put(self, app_id: str, n_bytes: int) -> None:
        """Raise :class:`QuotaExceededError` if this PUT would exceed any
        limit; otherwise record it."""
        usage = self._get(app_id)
        self._refill(usage)
        if usage.bytes_used + n_bytes > self.policy.max_bytes_per_app:
            self.rejections += 1
            raise QuotaExceededError(
                f"app {app_id!r} over byte quota "
                f"({usage.bytes_used + n_bytes} > {self.policy.max_bytes_per_app})"
            )
        if usage.entries + 1 > self.policy.max_entries_per_app:
            self.rejections += 1
            raise QuotaExceededError(f"app {app_id!r} over entry quota")
        if self.policy.puts_per_second != float("inf"):
            if usage.tokens < 1.0:
                self.rejections += 1
                raise QuotaExceededError(f"app {app_id!r} over PUT rate limit")
            usage.tokens -= 1.0
        usage.bytes_used += n_bytes
        usage.entries += 1

    def restore(self, app_id: str, n_bytes: int) -> None:
        """Re-admit usage for an entry coming back from a snapshot or the
        write-ahead log.  No limit or rate check applies — the entry was
        admitted before the restart, and dropping it now would let an app
        exceed its quota by simply waiting for a store restart."""
        usage = self._get(app_id)
        usage.bytes_used += n_bytes
        usage.entries += 1

    def release(self, app_id: str, n_bytes: int) -> None:
        """Credit quota back when an entry is evicted or deleted."""
        usage = self._get(app_id)
        usage.bytes_used = max(0, usage.bytes_used - n_bytes)
        usage.entries = max(0, usage.entries - 1)

    def usage_of(self, app_id: str) -> tuple[int, int]:
        usage = self._get(app_id)
        return usage.bytes_used, usage.entries
