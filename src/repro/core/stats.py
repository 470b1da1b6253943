"""Per-runtime instrumentation for experiments and examples.

Every deduplicated call records both wall-clock time (honest Python
measurement) and simulated time (the calibrated virtual clock), so the
benchmark harness can print the paper's relative-running-time series in
both units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.metrics import namespaced

#: ``RuntimeStats.records`` keeps at least this many of the most recent
#: calls (and at most twice as many), so a long-lived runtime holds the
#: same memory after a million calls as after a thousand.
RECORD_WINDOW = 1024


@dataclass(frozen=True)
class CallRecord:
    """One deduplicated function call.

    For calls executed through :meth:`DedupRuntime.execute_many`, costs
    shared by the whole batch (the single ECALL, the batched OCALL, the
    one channel record) are split evenly across the batch's records, so
    summing ``sim_seconds`` over a batch still equals the batch's total.
    ``l1_hit`` marks hits served from the in-enclave L1 cache without any
    store round-trip.
    """

    description: str
    hit: bool
    input_bytes: int
    result_bytes: int
    wall_seconds: float
    sim_seconds: float
    l1_hit: bool = False
    batch_size: int = 1
    # The store was unreachable and the runtime computed locally instead
    # of failing (graceful degradation — Algorithm 1's path, entered for
    # availability rather than novelty).  Mutually exclusive with hit.
    degraded: bool = False
    # Single-flight: this call carried a tag identical to another call
    # in flight in the same batch and was handed that leader's result —
    # one store round trip and one verification for the whole group.
    # Always a hit (of whatever kind the leader's outcome was).
    coalesced: bool = False


@dataclass
class RuntimeStats:
    """Counters for one DedupRuntime instance.

    PUT accounting is explicit: every flushed PUT ends up in exactly one
    of ``puts_accepted`` (store said yes), ``puts_rejected`` (store said
    no — duplicate-rejection, quota, malformed), or ``puts_failed`` (the
    reply was an error message, e.g. the record was corrupted in
    transit).  PUTs whose response never arrived are *not* silently
    counted anywhere — they remain visible as
    :attr:`DedupRuntime.puts_unacknowledged`.
    """

    calls: int = 0
    hits: int = 0
    misses: int = 0
    # Store unreachable, computed locally: a third, mutually exclusive
    # call outcome, so hits + misses + degraded == calls always holds
    # (the simulation harness asserts this conservation invariant).
    degraded: int = 0
    l1_hits: int = 0
    # Hits served by single-flight coalescing (pipelined engine): the
    # call shared an in-flight leader's round trip/verification/compute.
    coalesced_hits: int = 0
    batches: int = 0
    verification_failures: int = 0
    puts_sent: int = 0
    puts_accepted: int = 0
    puts_rejected: int = 0
    puts_failed: int = 0
    #: The most recent calls, oldest first (see :data:`RECORD_WINDOW`).
    records: list[CallRecord] = field(default_factory=list)

    def __post_init__(self):
        # Totals over every call, added in call order (not fields: the
        # counters are what ``asdict`` and ``==`` compare).
        self._wall_total = 0.0
        self._sim_total = 0.0

    def record_call(self, record: CallRecord) -> None:
        self.calls += 1
        if record.hit:
            self.hits += 1
        elif record.degraded:
            self.degraded += 1
        else:
            self.misses += 1
        if record.l1_hit:
            self.l1_hits += 1
        if record.coalesced:
            self.coalesced_hits += 1
        self._wall_total += record.wall_seconds
        self._sim_total += record.sim_seconds
        records = self.records
        records.append(record)
        if len(records) >= 2 * RECORD_WINDOW:
            del records[:-RECORD_WINDOW]

    def hit_rate(self) -> float:
        return self.hits / self.calls if self.calls else 0.0

    def total_wall_seconds(self) -> float:
        return self._wall_total

    def total_sim_seconds(self) -> float:
        return self._sim_total

    #: Counters whose attribute spelling is inconsistent (mixed
    #: tense/units) and their normalized ``runtime.<metric>`` names.
    _RENAMES = {
        "total_wall_seconds": "wall_seconds_total",
        "total_sim_seconds": "sim_seconds_total",
        "degraded": "degraded_calls",
    }

    def snapshot(self) -> dict:
        """One flat dict with every counter plus the derived aggregates.

        This is the single structure observability consumers (the cluster
        bench, examples, the MetricsRegistry) read, instead of picking
        attributes off the dataclass one by one.  Keys are canonical
        ``runtime.<metric>``.  The per-call records list is deliberately
        excluded — a snapshot is cheap and JSON-ready.
        """
        return namespaced("runtime", {
            "calls": self.calls,
            "hits": self.hits,
            "misses": self.misses,
            "degraded": self.degraded,
            "l1_hits": self.l1_hits,
            "coalesced_hits": self.coalesced_hits,
            "batches": self.batches,
            "verification_failures": self.verification_failures,
            "puts_sent": self.puts_sent,
            "puts_accepted": self.puts_accepted,
            "puts_rejected": self.puts_rejected,
            "puts_failed": self.puts_failed,
            "hit_rate": self.hit_rate(),
            "total_wall_seconds": self.total_wall_seconds(),
            "total_sim_seconds": self.total_sim_seconds(),
        }, renames=self._RENAMES)
