"""The one probe: snapshot clocks and counters, run, subtract.

Every machine of a deployment keeps its own virtual clock, so "sim
seconds" is not one number.  :class:`Delta` returns the parts and names
the five combinations the experiments report; an experiment's column
declaration picks one (``probe=lambda d: d.bottleneck_s``), so the
definition of a printed number is found without reading its runner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.scheme import CHALLENGE_SIZE, KEY_SIZE
from ..crypto.hashes import sha256
from ..net.messages import PutRequest
from ..obs.exporters import diff_breakdown


@dataclass(frozen=True)
class Delta:
    """What one measured phase cost, in parts (the default: nothing ran)."""

    freq_hz: float = 1.0
    app_cycles: float = 0.0        # the application machine's clock advance
    shard_cycles: dict = field(default_factory=dict)  # shard id -> its own machine's
    overlap_cycles: float = 0.0    # engine: machine time hidden by overlapped rounds
    makespan_cycles: float = 0.0   # engine: critical path of the rounds it scheduled
    wall_s: float = 0.0            # Python wall-clock seconds
    transitions: int = 0           # enclave crossings entered (requester + stores)
    records: int = 0               # channel records the requester's client sealed
    faults: int = 0                # EPC page faults on the application machine
    counters: dict = field(default_factory=dict)  # runtime.* / router.* / rpc.* / store.*
    phases: dict = field(default_factory=dict)    # tracer phase_breakdown ({} untraced)

    @property
    def app_s(self) -> float:
        """One machine.  When the one shard shares the application's
        machine (Fig. 1) this is the whole cost; with shards on machines
        of their own it is the client side only."""
        return self.app_cycles / self.freq_hz

    @property
    def bottleneck_s(self) -> float:
        """The busiest shard machine.  Shards are independent machines
        serving disjoint tag ranges, so a cluster drains an open-loop
        request stream at the pace of its busiest shard."""
        return max(self.shard_cycles.values()) / self.freq_hz

    @property
    def shards_s(self) -> float:
        """Store-side machine time only (the sum over shards; the
        durable sweep runs one, isolating the PUT path)."""
        return sum(self.shard_cycles.values()) / self.freq_hz

    @property
    def machines_s(self) -> float:
        """Application plus every shard machine, less the overlap credit
        of the engine's schedule (serial clients have none)."""
        cycles = self.app_cycles + sum(self.shard_cycles.values())
        return (cycles - self.overlap_cycles) / self.freq_hz

    @property
    def makespan_s(self) -> float:
        """The engine's critical path: foreground rounds plus whatever
        background (migration) work they could not hide."""
        return self.makespan_cycles / self.freq_hz


class Probe:
    """Snapshot on construction; :meth:`delta` subtracts.

    ``session`` (a :class:`~repro.session.Session`) names the requester:
    its application's runtime, router and enclave, the pipelined engine
    attached to that runtime (if any), and every shard of its deployment.
    Clocks are summed over distinct machines: a shard on the app machine
    adds its store's counters but no clock of its own.
    """

    def __init__(self, session):
        runtime = session.runtime
        shards = session.cluster.shards
        stores = [node.store for node in shards.values()]
        self._epc = session.platform.epc
        self._tracer = session.tracer
        self._engine = runtime.engine
        self._client = runtime.client
        self._enclaves = [
            e for e in (session.enclave, *(store.enclave for store in stores))
            if e is not None
        ]
        self._sources = [
            *(store.stats.snapshot for store in stores),
            runtime.stats.snapshot, runtime.client.snapshot,
        ]
        self._app_clock = session.clock
        self._shard_clocks = {
            sid: node.platform.clock for sid, node in shards.items()
            if node.platform is not session.platform
        }
        self._app0 = self._app_clock.snapshot()
        self._shard0 = {sid: c.snapshot() for sid, c in self._shard_clocks.items()}
        self._marks = self._read()
        self._wall0 = time.perf_counter()

    def _read(self) -> tuple[dict, dict, dict]:
        """``(running totals by Delta field, flat counters, tracer phases)``."""
        engine = self._engine
        totals = dict(
            overlap_cycles=engine.overlap_cycles_saved if engine else 0.0,
            makespan_cycles=engine.makespan_cycles if engine else 0.0,
            transitions=sum(e.transition_count for e in self._enclaves),
            records=self._client.records_sent,
            faults=self._epc.fault_count,
        )
        counters: dict = {}
        for source in self._sources:
            for key, value in source().items():
                counters[key] = counters.get(key, 0) + value
        phases = self._tracer.phase_breakdown() if self._tracer.enabled else {}
        return totals, counters, phases

    def delta(self) -> Delta:
        wall = time.perf_counter() - self._wall0
        totals0, counters0, phases0 = self._marks
        totals, counters, phases = self._read()
        return Delta(
            freq_hz=self._app_clock.params.cpu_freq_hz,
            app_cycles=self._app_clock.since(self._app0),
            shard_cycles={
                sid: clock.since(self._shard0[sid])
                for sid, clock in self._shard_clocks.items()
            },
            wall_s=wall,
            counters={key: value - counters0.get(key, 0) for key, value in counters.items()},
            phases=diff_breakdown(phases0, phases),
            **{key: value - totals0[key] for key, value in totals.items()},
        )


def timed(fn, clock=None) -> tuple:
    """``(fn(), sim seconds, wall seconds)`` of one operation charged to
    a bare ``SimClock`` (no deployment around it to probe; without a
    clock, sim seconds are 0)."""
    start_wall = time.perf_counter()
    start_sim = clock.snapshot() if clock else 0.0
    out = fn()
    wall = time.perf_counter() - start_wall
    sim = clock.since(start_sim) / clock.params.cpu_freq_hz if clock else 0.0
    return out, sim, wall


def put_stream(drbg, count: int, size_bytes: int, tag_prefix: bytes,
               app_id: str, block_bytes: int = 4096) -> list[PutRequest]:
    """``count`` PUTs in the Fig. 6 regime — "the incoming data are all
    different": one random block tiled to ``size_bytes``, the item index
    in its last eight bytes, a fresh challenge and wrapped key each."""
    block = drbg.generate(block_bytes)
    body = (block * (size_bytes // block_bytes + 1))[:size_bytes - 8]
    return [
        PutRequest(
            tag=sha256(tag_prefix + i.to_bytes(4, "big")),
            challenge=drbg.generate(CHALLENGE_SIZE),
            wrapped_key=drbg.generate(KEY_SIZE),
            sealed_result=body + i.to_bytes(8, "big"),
            app_id=app_id,
        )
        for i in range(count)
    ]
