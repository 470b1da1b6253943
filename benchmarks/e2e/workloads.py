"""The four workloads: topology, seeded traffic, and the calls a request makes.

Everything here drives the program through ``repro.connect()`` and the
:class:`~repro.session.Session` it returns.  The load model is a closed
loop with one client in one thread: the next request is issued only
after the previous one returned (the program is single-threaded and does
no real I/O, so one driver is the whole load).

A *request* is one driver call (``Session.execute`` or
``Session.execute_many``); an *op* is one deduplicable function call, so
a batch request of 32 is 32 ops.  Requests come in fixed-size *passes*;
the measured window is a whole number of passes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
from collections import deque
from dataclasses import dataclass, field

import repro
from repro.core.runtime import RuntimeConfig
from repro.store.resultstore import StoreConfig


def reverse(data: bytes) -> bytes:
    """The marked function.  Cheap and deterministic on purpose, so that
    SPEED's own layers — not the application — dominate every request."""
    return bytes(data[::-1])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    input_bytes: int              # nominal; each input's length is seeded around it
    warm_inputs: int              # distinct inputs a writer stores during set-up
    batch: int                    # ops per request; 1 means Session.execute
    novel_per_request: int        # never-seen inputs among the batch (misses)
    pass_requests: int            # requests per pass
    sim_requests: int             # requests the virtual-clock figures cover
    connect: dict = field(default_factory=dict)
    # Lengths fall within input_bytes / size_spread of nominal.  Narrow, so
    # that a median over few distinct inputs does not swing with the seed;
    # wider where a p99 would otherwise land on the one largest size.
    size_spread: int = 64
    zipf: float = 0.0             # popularity skew over the warm inputs; 0 = uniform
    reader_l1_entries: int = 0
    pipeline: bool = False
    flush_each_request: bool = False   # request = map + flush_puts, so it ends acked
    store_capacity: int = 0            # bounded store: set-up fills it, then PUTs evict
    # Share of ops that must be served by a store GET hit (not L1, not
    # coalesced): [least, most].
    store_hit_share: tuple[float, float] = (1.0, 1.0)

    @property
    def durable(self) -> bool:
        return bool(self.store_capacity)

    def quick(self) -> "Workload":
        """A seconds-long variant for the smoke test and --check-repeat."""
        pass_requests = max(2, self.pass_requests // 4)
        return dataclasses.replace(
            self,
            warm_inputs=self.warm_inputs // 8,
            reader_l1_entries=self.reader_l1_entries // 8,
            store_capacity=self.store_capacity // 8,
            pass_requests=pass_requests,
            sim_requests=2 * pass_requests,
        )


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="hit1k_call",
        why="100% cross-application store hits on ~1 KiB inputs at batch 1: "
            "per-request fixed costs dominate (2 transitions, 2 channel "
            "records' AEAD set-up, tag hash, key unwrap and verify)",
        input_bytes=1024, warm_inputs=512, batch=1, novel_per_request=0,
        pass_requests=50, sim_requests=1000, size_spread=8,
    ),
    Workload(
        name="hit64k_call",
        why="same path with ~64 KiB inputs: per-byte work dominates (AES-CTR and "
            "GHASH bulk, framing and serialization copies, blob reads, marshalling)",
        input_bytes=65536, warm_inputs=32, batch=1, novel_per_request=0,
        pass_requests=5, sim_requests=100,
    ),
    Workload(
        name="mix2k_cluster_batch",
        why="4 shards x 2 replicas behind the pipelined engine, batches of 32, 25% "
            "novel inputs, Zipf(0.9) reads over a working set 8x the L1: routing, "
            "fan-out, rounds, batch AEAD amortisation, reads beside writes",
        input_bytes=2048, warm_inputs=256, batch=32, novel_per_request=8,
        pass_requests=4, sim_requests=64,
        connect={"shards": 4, "replication_factor": 2},
        zipf=0.9, reader_l1_entries=32, pipeline=True,
        store_hit_share=(0.40, 0.75),
    ),
    Workload(
        name="put1k_durable_batch",
        why="0% hits into one durable shard at its 256-entry capacity: scheme "
            "protect, store PUT and eviction, WAL seal, group commit and "
            "checkpoint spikes; carries the power-fail read-back check",
        input_bytes=1024, warm_inputs=0, batch=16, novel_per_request=16,
        # 9, not 8: with the default checkpoint every 256 log records a
        # multiple of 8 requests always ends on a fresh checkpoint, and
        # the recovery check would never replay a record.
        pass_requests=9, sim_requests=108,
        connect={"shards": 1, "replication_factor": 1},
        flush_each_request=True, store_capacity=256,
        store_hit_share=(0.0, 0.0),
    ),
)}


class Traffic:
    """Everything random about a run, drawn from ``(workload, seed)``.

    The program sees only the generated inputs.  Two ``Traffic`` objects
    with the same arguments yield the same inputs in the same order, so
    every set-up of a run is a replica of the others.
    """

    def __init__(self, spec: Workload, seed: int):
        self.spec = spec
        self._rng = random.Random(f"{spec.name}:{seed}")
        self.warm = [self._fresh() for _ in range(spec.warm_inputs)]
        ranks = range(1, spec.warm_inputs + 1)
        self._cumulative = list(itertools.accumulate(r ** -spec.zipf for r in ranks))
        # What a bounded store still holds: the newest ``capacity`` inputs.
        self.recent: deque[bytes] = deque(maxlen=spec.store_capacity or None)
        self.fingerprint = hashlib.sha256(
            b"".join(self.warm) + self._rng.randbytes(32)
        ).hexdigest()[:16]

    def _fresh(self) -> bytes:
        nominal = self.spec.input_bytes
        jitter = nominal // self.spec.size_spread
        return self._rng.randbytes(self._rng.randint(nominal - jitter, nominal + jitter))

    def next_pass(self) -> list[list[bytes]]:
        """One pass of requests; each request is its list of inputs."""
        spec = self.spec
        requests = []
        for _ in range(spec.pass_requests):
            inputs = []
            if spec.batch > spec.novel_per_request:
                inputs = self._rng.choices(
                    self.warm, cum_weights=self._cumulative,
                    k=spec.batch - spec.novel_per_request,
                )
            for position in sorted(
                self._rng.sample(range(spec.batch), spec.novel_per_request)
            ):
                novel = self._fresh()
                inputs.insert(position, novel)
                self.recent.append(novel)
            requests.append(inputs)
        return requests

    def live_result_bytes(self) -> int:
        """Plaintext bytes of the results the store is expected to hold
        (``reverse`` keeps the length)."""
        stored = self.recent if self.spec.store_capacity else (*self.warm, *self.recent)
        return sum(len(data) for data in stored)


@dataclass
class Rig:
    """One assembled deployment, ready to take measured requests."""

    spec: Workload
    traffic: Traffic
    driver: "repro.Session"       # the session requests go through
    description: object           # FunctionDescription of ``reverse``
    engine: object | None         # PipelineEngine when the workload pipelines

    def issue(self, inputs: list[bytes]) -> list[bytes]:
        """One request."""
        if self.spec.batch == 1:
            return [self.driver.execute(self.description, inputs[0])]
        outputs = self.driver.execute_many(self.description, inputs)
        if self.spec.flush_each_request:
            self.driver.flush_puts()
        return outputs

    def end_pass(self) -> None:
        """Queued asynchronous PUTs are part of the work: drain them and
        fold the engine's background lane in before the pass's clock stops."""
        if self.spec.novel_per_request and not self.spec.flush_each_request:
            self.driver.flush_puts()
            if self.engine is not None:
                self.engine.settle()


def build(spec: Workload, seed: int, tracing: bool = False) -> Rig:
    """Set-up: connect (attestation, channels), warm fill, sibling, engine.

    The caller runs ``spec``'s unmeasured passes next (see
    ``measure.set_up``); both together are what ``setup_s`` times.
    """
    traffic = Traffic(spec, seed)
    store_config = None
    if spec.durable:
        store_config = StoreConfig(
            durable=True, wal_group_commit=8, capacity_entries=spec.store_capacity
        )
    session = repro.connect(
        app_name="writer", seed=b"e2e-bench", tracing=tracing,
        store_config=store_config, **spec.connect,
    )
    description = session.mark(version="1.0")(reverse).description
    driver = session
    if spec.warm_inputs:
        for start in range(0, spec.warm_inputs, 32):
            session.execute_many(description, traffic.warm[start:start + 32])
            session.flush_puts()
        # The paper's cross-application story: the reader never computed
        # these results itself.
        driver = session.sibling(
            "reader",
            runtime_config=RuntimeConfig(
                app_id="reader", l1_cache_entries=spec.reader_l1_entries
            ),
        )
    # A static window, not depth="auto": the AIMD governor is bistable on
    # this traffic (by seed it either pins at its ceiling or oscillates
    # around 5), which moves the virtual-clock figures by a fifth.
    engine = driver.enable_pipeline(depth=8, workers=4) if spec.pipeline else None
    return Rig(spec, traffic, driver, description, engine)
