"""The scenario runner: one seeded, fully deterministic chaos run.

:func:`run_scenario` assembles a sharded SPEED deployment through the
public :func:`repro.connect` API with the hardened client path enabled
(retries, per-shard circuit breakers, graceful degradation) and durable
(write-ahead-logged) stores, arms a seeded
:class:`~repro.simtest.schedule.FaultPlan`, and walks one schedule that
draws from every fault class at once: shard crashes, crash-restarts,
power failures, partitions, slow links, corruption of host-held
ciphertexts (through :class:`~repro.security.adversary.HostAdversary`)
and store metadata, and live topology changes whose participants crash
mid-range.  After the walk it heals the cluster, lets everything
settle, and checks all eight invariants
(:mod:`repro.simtest.invariants`).

Everything observable is derived from ``SimConfig.seed``: the workload,
the engine the workload runs through, the op sequence, every fault
decision.  The run emits a trace of deterministic event lines whose
SHA-256 digest is byte-identical across replays of the same config —
the property the ``--seed`` repro strings rely on, and which a
regression test pins.

Wall-clock and simulated-time figures are deliberately **excluded** from
the trace: it records what happened, not what it cost, so a change to
the cost model leaves every digest where it is.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .invariants import (
    Violation,
    check_coalesced,
    check_confidentiality,
    check_conservation,
    check_depth_identical,
    check_durability,
    check_recovery,
    check_single_owner,
    store_image,
)
from .schedule import FaultPlan
from ..cluster.migration import rebalance
from ..cluster.ring import TopologyPlan
from ..crypto.hashes import tagged_hash
from ..core.runtime import RuntimeConfig
from ..errors import SpeedError
from ..net.circuit import BreakerConfig
from ..net.rpc import RetryPolicy
from ..net.transport import FaultInjector, corrupt_payload
from ..security.adversary import HostAdversary
from ..session import connect
from ..store.resultstore import StoreConfig

#: What ``SimConfig.without`` can name: the scenario-op classes of the
#: op table below, then the per-message fault kinds of the FaultPlan.
FAULT_CLASSES = (
    "crash", "partition", "tamper", "migration",
    "drop", "duplicate", "delay", "corrupt",
)

#: Per-message fault probabilities, and the longest random hold-back.
_MESSAGE_FAULTS = {"drop": 0.03, "duplicate": 0.03, "delay": 0.05, "corrupt": 0.02}
_MAX_DELAY = 3
_REPLICATION_FACTOR = 2
_INPUTS = 6

#: The engine ``seed % 3`` picks, and the submit window it enables:
#: the serial client path, a depth-8 pipelined engine, or a depth-16
#: one (checked against a depth-1 replay by invariant 8).
ENGINES = {"serial": None, "pipeline": 8, "deep": 16}


def fault_classes(names) -> frozenset:
    """``names`` as a frozenset, refusing any not in :data:`FAULT_CLASSES`."""
    names = frozenset(names)
    unknown = sorted(names - set(FAULT_CLASSES))
    if unknown:
        raise ValueError(
            f"unknown fault class(es) {','.join(unknown)}; "
            f"choose from {','.join(FAULT_CLASSES)}"
        )
    return names


@dataclass(frozen=True)
class SimConfig:
    """One scenario, fully determined by these fields."""

    seed: int
    steps: int = 40
    shards: int = 3
    #: Fault classes this scenario leaves out (the shrinker's only knob).
    without: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "without", fault_classes(self.without))

    @property
    def engine(self) -> str:
        """The client path this seed drives: a key of :data:`ENGINES`."""
        return list(ENGINES)[self.seed % len(ENGINES)]

    def repro_string(self) -> str:
        """The one-liner that replays this exact scenario."""
        parts = [f"python -m repro.simtest --seed {self.seed}"]
        if self.steps != 40:
            parts.append(f"--steps {self.steps}")
        if self.shards != 3:
            parts.append(f"--shards {self.shards}")
        if self.without:
            names = [name for name in FAULT_CLASSES if name in self.without]
            parts.append(f"--without {','.join(names)}")
        return " ".join(parts)


@dataclass
class ScenarioResult:
    """Everything one scenario produced."""

    config: SimConfig
    trace: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    #: Ordered per-call result bytes (calls and batch items alike) —
    #: what the depth-identity invariant compares across depths.
    values: list = field(default_factory=list)
    #: Invariant name -> how many times this run evaluated it.
    checked: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def digest(self) -> str:
        """SHA-256 over the trace — byte-identical across replays."""
        return hashlib.sha256("\n".join(self.trace).encode()).hexdigest()

    @property
    def repro(self) -> str:
        return self.config.repro_string()

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return (
            f"seed={self.config.seed} steps={self.config.steps} "
            f"shards={self.config.shards} engine={self.config.engine} "
            f"calls={self.counters.get('runtime.calls', 0)} "
            f"hits={self.counters.get('runtime.hits', 0)} "
            f"degraded={self.counters.get('runtime.degraded_calls', 0)} "
            f"digest={self.digest[:16]} {verdict}"
        )


#: Counters included in the trace tail (and ScenarioResult.counters).
#: Only order- and platform-deterministic integers belong here — never
#: anything derived from the simulated or wall clock.
_TRACE_COUNTERS = (
    "runtime.calls",
    "runtime.hits",
    "runtime.misses",
    "runtime.degraded_calls",
    "runtime.l1_hits",
    "runtime.coalesced_hits",
    "runtime.verification_failures",
    "runtime.puts_sent",
    "runtime.puts_accepted",
    "runtime.puts_rejected",
    "runtime.puts_failed",
    "runtime.puts_unacknowledged",
    "runtime.puts_acked_unique",
    "net.messages",
    "net.dropped",
    "net.corrupted",
    "net.duplicated",
    "net.delayed",
    "router.retries",
    "router.records_rejected",
    "router.duplicate_responses_dropped",
    "router.circuit_opens",
    "router.circuit_skips",
    "engine.depth_current",
)


def _workload_result(input_bytes: bytes) -> bytes:
    """The scenario workload, as plain Python — the correctness oracle
    computes expected values through this same function."""
    return tagged_hash(b"simtest/workload", input_bytes) * 2


class _Walk:
    """The state one scenario's op handlers share.  Each handler draws
    what it needs from ``rng`` and returns the rest of its trace line."""

    def __init__(self, config: SimConfig, session, workload, plan: FaultPlan):
        self.repro = config.repro_string()
        self.session = session
        self.cluster = session.cluster
        self.workload = workload
        self.plan = plan
        self.rng = random.Random(config.seed)
        # Corruption targets are picked from store contents, whose size
        # at a given step depends on PUT-flush timing — i.e. on the
        # engine depth.  Those draws live on their own stream so the
        # *op schedule* stays a pure function of the seed across engines
        # (invariant 8 replays the same schedule at depth 1;
        # random.Random's rejection sampling would otherwise consume a
        # depth-dependent number of bits and fork the schedule).
        self.target_rng = random.Random(config.seed ^ 0x7A11C0DE)
        self.pool = [
            tagged_hash(b"simtest/input", str(config.seed).encode(), i.to_bytes(4, "big"))
            for i in range(_INPUTS)
        ]
        self.expected = [_workload_result(data) for data in self.pool]
        self.trace: list[str] = []
        self.violations: list[Violation] = []
        self.checked: Counter = Counter()
        self.values: list[bytes] = []  # ordered result bytes, for invariant 8
        self.owed = 0  # value slots the current op still owes (invariant 8)
        self.dead: set[str] = set()
        self.partitioned: set[str] = set()
        self.corrupted_tags: set[bytes] = set()
        self.migrator = None  # the open streaming topology change, if any
        self.mig_kind = self.mig_subject = ""

    # -- bookkeeping ------------------------------------------------------------
    def check(self, invariant: str, found: list) -> None:
        self.checked[invariant] += 1
        self.violations.extend(found)

    def check_value(self, label: str, index: int, value: bytes) -> None:
        self.values.append(value)
        self.check("correctness", [] if value == self.expected[index] else [Violation(
            "correctness", f"{label} for input[{index}] returned wrong bytes", self.repro,
        )])

    def alive(self) -> list:
        return [sid for sid in self.cluster.shard_ids if sid not in self.dead]

    def migrating(self) -> bool:
        return self.migrator is not None and not self.migrator.finished

    def power_fail(self, sid: str):
        """Cut power to ``sid`` and hold its recovery to invariant 6."""
        store = self.cluster.shards[sid].store
        pre = store_image(store)
        report = self.cluster.power_fail_shard(sid)
        post = store_image(store)
        self.check("recovery", check_recovery(
            pre, post, self.corrupted_tags, sid, self.repro,
        ))
        return pre, post, report

    # -- workload ---------------------------------------------------------------
    def call(self) -> str:
        index = self.rng.randrange(_INPUTS)
        self.owed = 1
        result = self.workload.call_result(self.pool[index])
        self.check_value("call", index, result.value)
        return f"input={index} source={result.source} degraded={result.degraded}"

    def batch(self) -> str:
        indices = [self.rng.randrange(_INPUTS) for _ in range(self.rng.randint(2, 5))]
        self.owed = len(indices)
        results = self.workload.map_results([self.pool[i] for i in indices])
        for i, result in zip(indices, results):
            self.check_value("batch", i, result.value)
        self.check("coalescing", check_coalesced(results, self.repro))
        return f"inputs={indices} outcomes={','.join(r.source for r in results)}"

    def flush(self) -> str:
        return f"puts={self.session.flush_puts()}"

    # -- crash ------------------------------------------------------------------
    def kill(self) -> str:
        alive = self.alive()
        if len(alive) <= 1:  # keep at least one shard reachable
            return "skipped"
        sid = self.rng.choice(alive)
        self.cluster.kill_shard(sid)
        self.dead.add(sid)
        return f"shard={sid}"

    def revive(self) -> str:
        if not self.dead:
            return "skipped"
        sid = self.rng.choice(sorted(self.dead))
        self.cluster.revive_shard(sid)
        self.dead.discard(sid)
        return f"shard={sid}"

    def restart(self) -> str:
        alive = self.alive()
        if not alive:
            return "skipped"
        sid = self.rng.choice(alive)
        report = self.cluster.restart_shard(sid)
        return f"shard={sid} restored={report.entries_restored}"

    def power_fail_any(self) -> str:
        alive = self.alive()
        if not alive:
            return "skipped"
        sid = self.rng.choice(alive)
        pre, post, report = self.power_fail(sid)
        return (
            f"shard={sid} wiped={len(pre)} restored={len(post)} "
            f"replayed={report.records_replayed}"
        )

    def power_fail_participant(self) -> str:
        # Crash a *participant* of the open hand-off mid-range — the
        # source that just discarded or the destination that just
        # ingested.
        participants = sorted(
            sid for sid in (self.migrator.participants if self.migrating() else ())
            if sid in self.cluster.shards and sid not in self.dead
        )
        if not participants:
            return "skipped"
        sid = self.rng.choice(participants)
        _, _, report = self.power_fail(sid)
        return (
            f"shard={sid} replayed={report.records_replayed} "
            f"marks={report.migrate_marks_replayed}"
        )

    # -- partition --------------------------------------------------------------
    def partition(self) -> str:
        candidates = [s for s in self.cluster.shard_ids if s not in self.partitioned]
        if len(candidates) <= 1:  # never partition the whole cluster
            return "skipped"
        sid = self.rng.choice(candidates)
        store = self.cluster.shards[sid].address
        self.plan.block(f"app->{sid}", store)
        self.plan.block(store, f"app->{sid}")
        self.partitioned.add(sid)
        return f"shard={sid}"

    def heal(self) -> str:
        self.plan.heal()
        self.partitioned.clear()
        return ""

    def slow(self) -> str:
        sid = self.rng.choice(self.cluster.shard_ids)
        ticks = self.rng.randint(1, _MAX_DELAY)
        self.plan.set_slow(self.cluster.shards[sid].address, ticks)
        return f"shard={sid} ticks={ticks}"

    # -- tamper -----------------------------------------------------------------
    def tamper_target(self):
        """A random shard's store and one of its tags (or ``None``)."""
        sid = self.rng.choice(self.cluster.shard_ids)
        store = self.cluster.shards[sid].store
        tags = store.stored_tags()
        if not tags:
            return sid, store, None
        return sid, store, tags[self.target_rng.randrange(len(tags))]

    def corrupt_blob(self) -> str:
        sid, store, tag = self.tamper_target()
        if tag is None:
            return "skipped"
        HostAdversary(store.platform.host).flip(
            store.blobstore.name(store.metadata_entry(tag).blob_ref)
        )
        self.corrupted_tags.add(tag)
        return f"shard={sid} tag={tag.hex()[:12]}"

    def corrupt_meta(self) -> str:
        sid, store, tag = self.tamper_target()
        if tag is None:
            return "skipped"
        entry = store.metadata_entry(tag)
        entry.wrapped_key = corrupt_payload(entry.wrapped_key)
        return f"shard={sid} tag={tag.hex()[:12]}"

    # -- migration --------------------------------------------------------------
    def mig_open(self) -> str:
        kind_draw = self.rng.random()
        if self.migrating():
            return "skipped"
        # Every draw comes from the schedule rng, so the window is a
        # pure function of the seed; ``mig_kind`` and ``mig_subject``
        # are this trace's own words for it (the migrator only knows
        # the plan).
        members = sorted(self.cluster.shards)
        if kind_draw < 0.25 and len(members) > 2:
            # Planned multi-change window: two joins (one weighted), one
            # drain, one reweight — all in a single dual-ownership window.
            leaver = self.rng.choice(members)
            reweighted = self.rng.choice([s for s in members if s != leaver])
            self.mig_kind = "plan"
            topo = (
                TopologyPlan()
                .join(weight=self.rng.choice((0.5, 1.0, 2.0)))
                .join()
                .leave(leaver)
                .reweight(reweighted, self.rng.choice((0.5, 1.5, 2.0)))
            )
        elif kind_draw < 0.625 and len(members) > 2:
            self.mig_kind = "leave"
            topo = TopologyPlan().leave(self.rng.choice(members))
        else:
            self.mig_kind = "join"
            topo = TopologyPlan().join()
        self.migrator = self.cluster.begin_plan(topo)
        if self.mig_kind == "plan":
            self.mig_subject = self.migrator.label
            named = f"label={self.mig_subject}"
        else:
            (self.mig_subject,) = self.migrator.joiners | self.migrator.leavers
            named = f"shard={self.mig_subject}"
        return f"kind={self.mig_kind} {named} ranges={len(self.migrator.ranges)}"

    def mig_step(self) -> str:
        if not self.migrating():
            return "skipped"
        if not self.migrator.pending_ranges():
            return "drained"
        if not self.migrator.step():
            return "blocked"
        done = len(self.migrator.ranges) - len(self.migrator.pending_ranges())
        return f"committed={done}/{len(self.migrator.ranges)}"

    def drain(self) -> bool:
        """Stream every pending range that can move; True once none is left."""
        while self.migrator.pending_ranges() and self.migrator.step():
            pass
        return not self.migrator.pending_ranges()

    def mig_finish(self) -> str:
        # Stream what is left and close the window; a range blocked on a
        # dead shard defers the close.
        if not self.migrating():
            return "skipped"
        if not self.drain():
            return "deferred"
        self.migrator.finish()
        self.dead &= set(self.cluster.shards)  # a drained leaver is gone
        return (
            f"kind={self.mig_kind} shard={self.mig_subject} "
            f"moved={self.migrator.moved} dropped={self.migrator.dropped}"
        )


@dataclass(frozen=True)
class _Op:
    """One row of the scenario walk: ``fault`` is the ``without`` class
    that removes it (``None`` for the workload, which always runs)."""

    name: str
    weight: int
    fault: str | None
    run: Callable[[_Walk], str]


#: The weighted op mix.  Workload ops dominate; crashes, partitions,
#: tampering and topology changes are the seasoning.
OPS = (
    _Op("call", 46, None, _Walk.call),
    _Op("batch", 10, None, _Walk.batch),
    _Op("flush", 8, None, _Walk.flush),
    _Op("kill", 6, "crash", _Walk.kill),
    _Op("revive", 6, "crash", _Walk.revive),
    _Op("restart", 5, "crash", _Walk.restart),
    _Op("power_fail", 5, "crash", _Walk.power_fail_any),
    _Op("mig_powerfail", 4, "crash", _Walk.power_fail_participant),
    _Op("partition", 5, "partition", _Walk.partition),
    _Op("heal", 5, "partition", _Walk.heal),
    _Op("slow", 4, "partition", _Walk.slow),
    _Op("corrupt_blob", 3, "tamper", _Walk.corrupt_blob),
    _Op("corrupt_meta", 2, "tamper", _Walk.corrupt_meta),
    _Op("mig_open", 4, "migration", _Walk.mig_open),
    _Op("mig_step", 10, "migration", _Walk.mig_step),
    _Op("mig_finish", 8, "migration", _Walk.mig_finish),
)


def run_scenario(config: SimConfig, _replay_depth: int | None = None) -> ScenarioResult:
    """Run one seeded scenario end to end and check every invariant.

    ``_replay_depth`` replaces the seed's engine with a static one of
    that depth: invariant 8's reference replay.
    """
    depth = _replay_depth or ENGINES[config.engine]
    plan = FaultPlan(seed=config.seed, max_delay=_MAX_DELAY, **{
        f"{kind}_rate": rate
        for kind, rate in _MESSAGE_FAULTS.items() if kind not in config.without
    })
    injector = FaultInjector()  # plan armed only after setup/attestation
    session = connect(
        shards=config.shards,
        replication_factor=_REPLICATION_FACTOR,
        seed=b"simtest/" + str(config.seed).encode(),
        tracing=False,
        fault_injector=injector,
        store_config=StoreConfig(durable=True),
        retry_policy=RetryPolicy(max_attempts=4, retry_protocol_errors=True),
        # Skip-count recovery: a breaker keyed to simulated seconds would
        # tie the trace to the cost model.
        breaker_config=BreakerConfig(
            failure_threshold=3, reset_timeout_s=None, reset_after_skips=6
        ),
        runtime_config=RuntimeConfig(degrade_on_store_failure=True),
    )
    if depth is not None:
        session.enable_pipeline(depth=depth, workers=4, coalesce=True)

    @session.mark(version="1.0")
    def sim_workload(data: bytes) -> bytes:
        return _workload_result(data)

    walk = _Walk(config, session, sim_workload, plan)
    repro, trace, cluster = walk.repro, walk.trace, session.cluster

    # The honest-but-curious adversary: record every wire payload.
    wire: list[bytes] = []
    session.network.add_tap(lambda source, dest, payload: wire.append(payload))
    secrets = {}
    for i, data in enumerate(walk.pool):
        secrets[f"input[{i}]"] = data
        secrets[f"result[{i}]"] = walk.expected[i]

    ops = [op for op in OPS if op.fault not in config.without]
    weights = [op.weight for op in ops]
    injector.plan = plan  # arm the schedule; setup traffic stays clean
    for step in range(config.steps):
        op = walk.rng.choices(ops, weights=weights)[0]
        walk.owed = 0
        values_before = len(walk.values)
        try:
            detail = op.run(walk)
            trace.append(f"step={step} op={op.name}" + (f" {detail}" if detail else ""))
        except SpeedError as exc:
            # The hardened client path (retry -> failover -> degrade)
            # should absorb every injected fault; an error surfacing to
            # the application is itself a finding.
            walk.violations.append(Violation(
                "liveness",
                f"step {step} op {op.name} raised {type(exc).__name__}: {exc}",
                repro,
            ))
            trace.append(f"step={step} op={op.name} error={type(exc).__name__}")
            # Keep the value streams of the deep and depth-1 runs
            # aligned even when a call surfaced an error: every planned
            # call of this op gets a sentinel slot.
            owed = walk.owed - (len(walk.values) - values_before)
            walk.values.extend([b"<error>"] * max(0, owed))

    # -- heal and settle -------------------------------------------------------
    injector.plan = None
    plan.heal()
    for sid in sorted(walk.dead):
        cluster.revive_shard(sid)
    walk.dead.clear()
    session.network.flush_delayed()
    if walk.migrating():
        # Every shard is alive again, so no range can stay blocked.
        if walk.drain():
            walk.migrator.finish()
            trace.append(
                f"phase=settle migration={walk.mig_kind} finished "
                f"moved={walk.migrator.moved}"
            )
        else:
            walk.violations.append(Violation(
                "single_owner", "open migration could not drain after heal", repro,
            ))
    for _ in range(3):
        session.flush_puts()
        session.network.flush_delayed()
    trace.append("phase=settle")

    # -- invariants ------------------------------------------------------------
    if not cluster.ring.in_transition:
        # One anti-entropy pass repairs placement drift from crashes and
        # replicas that were dead mid-migration, then the single-owner
        # invariant must hold exactly.
        repair = rebalance(cluster)
        trace.append(
            f"phase=rebalance moved={repair.moved} dropped={repair.dropped}"
        )
    acked = session.runtime.acked_put_tags
    walk.check("single_owner", check_single_owner(
        acked, walk.corrupted_tags, cluster, repro,
    ))
    walk.check("durability", check_durability(
        acked, walk.corrupted_tags, cluster, repro,
    ))
    hosts = [session.platform.host] + [node.platform.host for node in cluster.shards.values()]
    walk.check("confidentiality", check_confidentiality(secrets, wire, repro, hosts))
    walk.check("conservation", check_conservation(session.stats, repro))
    if config.engine == "deep" and _replay_depth is None:
        # Invariant 8: replay the identical schedule with a depth-1
        # engine — per-call result bytes must match exactly (depth is a
        # schedule knob, never a semantic one).
        reference = run_scenario(config, _replay_depth=1)
        walk.check("depth_identity", check_depth_identical(
            walk.values, reference.values, repro,
        ))

    snap = session.snapshot()
    counters = {key: snap[key] for key in _TRACE_COUNTERS if key in snap}
    for key in sorted(counters):
        trace.append(f"counter {key}={counters[key]}")
    for violation in walk.violations:
        trace.append(str(violation))

    return ScenarioResult(
        config=config, trace=trace, violations=walk.violations,
        counters=counters, values=walk.values, checked=walk.checked,
    )


def run_seeds(seeds, **overrides) -> list[ScenarioResult]:
    """Run one scenario per seed (the CI sweep entry point)."""
    return [run_scenario(SimConfig(seed=seed, **overrides)) for seed in seeds]


def replay_check(config: SimConfig) -> tuple[ScenarioResult, ScenarioResult, bool]:
    """Run a config twice; True iff the traces are byte-identical."""
    first = run_scenario(config)
    second = run_scenario(config)
    return first, second, first.digest == second.digest
