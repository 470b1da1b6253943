"""The scenario runner: one seeded, fully deterministic chaos run.

:func:`run_scenario` assembles a sharded SPEED deployment through the
public :func:`repro.connect` API with the hardened client path enabled
(retries, per-shard circuit breakers, graceful degradation), arms a
seeded :class:`~repro.simtest.schedule.FaultPlan`, and drives a
randomized workload interleaved with topology faults: shard crashes,
crash-restarts through the sealing/persistence path, partitions, slow
links, and deliberate corruption of untrusted memory and store
metadata.  After the scenario it heals the cluster, lets everything
settle, and checks the four global invariants
(:mod:`repro.simtest.invariants`).

Everything observable is derived from ``SimConfig.seed``: the workload,
the op sequence, every fault decision.  The run emits a trace of
deterministic event lines whose SHA-256 digest is byte-identical across
replays of the same config — the property the ``--seed`` repro strings
rely on, and which a regression test pins.

Wall-clock and simulated-time figures are deliberately **excluded** from
the trace: the simulated clock charges measured host time for in-enclave
compute, so any value derived from it would break replay equality.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace

from .invariants import (
    Violation,
    check_adaptive_identical,
    check_coalesced,
    check_confidentiality,
    check_conservation,
    check_durability,
    check_recovery,
    check_single_owner,
    store_image,
)
from .schedule import FaultPlan
from ..cluster.ring import TopologyPlan
from ..crypto.hashes import tagged_hash
from ..core.runtime import RuntimeConfig
from ..errors import SpeedError
from ..net.circuit import BreakerConfig
from ..net.rpc import RetryPolicy
from ..net.transport import FaultInjector, corrupt_payload
from ..session import connect
from ..store.resultstore import StoreConfig

#: Weighted op mix for the random scenario walk.  Workload ops dominate;
#: topology faults and corruption are the seasoning.
_OPS = (
    ("call", 46),
    ("batch", 10),
    ("flush", 8),
    ("kill", 6),
    ("revive", 6),
    ("restart", 5),
    ("partition", 5),
    ("heal", 5),
    ("slow", 4),
    ("corrupt_blob", 3),
    ("corrupt_meta", 2),
)


@dataclass(frozen=True)
class SimConfig:
    """One scenario, fully determined by these fields."""

    seed: int
    steps: int = 40
    shards: int = 3
    replication_factor: int = 2
    inputs: int = 6
    drop_rate: float = 0.03
    duplicate_rate: float = 0.03
    delay_rate: float = 0.05
    corrupt_rate: float = 0.02
    max_delay: int = 3
    # Shrinking toggles: each disables one class of scenario op.
    crash_ops: bool = True
    partition_ops: bool = True
    corruption_ops: bool = True
    # Drive the workload through the pipelined engine (tag coalescing
    # on) instead of the serial client path, and check the fifth
    # (coalescing) invariant on every batch.
    pipeline: bool = False
    # Engine submit window for --pipeline runs (the --adaptive
    # reference replay pins it to 1).
    pipeline_depth: int = 8
    # Let the AIMD AdaptiveDepthController size every engine round
    # (implies pipeline) and check the eighth (adaptive-identity)
    # invariant: per-call result bytes must match a depth-1 replay of
    # the same schedule, and the controller's decision digest joins the
    # replayed trace.
    adaptive: bool = False
    # Run the shards with durable write-ahead logs and add a power_fail
    # op (full state loss + WAL recovery) to the mix, checking the sixth
    # (recovery) invariant at every failure point.
    power_fail: bool = False
    # Stream live topology changes (joins and drains) through the
    # scenario: migrations open, advance range by range, and crash
    # (power-fail on sources and destinations mid-range) while the
    # workload keeps running; checks the seventh (single-owner)
    # invariant after healing.  Implies durable shards.
    migrate: bool = False

    def repro_string(self) -> str:
        """The one-liner that replays this exact scenario."""
        parts = [f"python -m repro.simtest --seed {self.seed}"]
        if self.steps != 40:
            parts.append(f"--steps {self.steps}")
        if self.shards != 3:
            parts.append(f"--shards {self.shards}")
        if self.pipeline:
            parts.append("--pipeline")
        if self.pipeline_depth != 8:
            parts.append(f"--pipeline-depth {self.pipeline_depth}")
        if self.adaptive:
            parts.append("--adaptive")
        if self.power_fail:
            parts.append("--power-fail")
        if self.migrate:
            parts.append("--migrate")
        return " ".join(parts)


@dataclass
class ScenarioResult:
    """Everything one scenario produced."""

    config: SimConfig
    trace: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    #: Ordered per-call result bytes (calls and batch items alike) —
    #: what the adaptive-identity invariant compares across depths.
    values: list = field(default_factory=list)

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
            f"shards={self.config.shards} calls={self.counters.get('runtime.calls', 0)} "
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
    # Adaptive engine decisions are deterministic ints: putting them in
    # the digested trace makes replay_check pin the controller's whole
    # decision sequence (invariant 8's pure-function clause).
    "engine.depth_current",
    "engine.depth_decisions",
    "engine.depth_changes",
    "engine.depth_shrinks",
    "engine.depth_migration_caps",
)


def _workload_result(input_bytes: bytes) -> bytes:
    """The scenario workload, as plain Python — the correctness oracle
    computes expected values through this same function."""
    return tagged_hash(b"simtest/workload", input_bytes) * 2


def run_scenario(config: SimConfig) -> ScenarioResult:
    """Run one seeded scenario end to end and check every invariant."""
    repro = config.repro_string()
    trace: list[str] = []
    violations: list[Violation] = []

    plan = FaultPlan(
        seed=config.seed,
        drop_rate=config.drop_rate,
        duplicate_rate=config.duplicate_rate,
        delay_rate=config.delay_rate,
        corrupt_rate=config.corrupt_rate,
        max_delay=config.max_delay,
    )
    injector = FaultInjector()  # plan armed only after setup/attestation
    session = connect(
        shards=config.shards,
        replication_factor=config.replication_factor,
        seed=b"simtest/" + str(config.seed).encode(),
        tracing=False,
        fault_injector=injector,
        store_config=(
            StoreConfig(durable=True)
            if (config.power_fail or config.migrate) else None
        ),
        retry_policy=RetryPolicy(max_attempts=4, retry_protocol_errors=True),
        # Deterministic skip-count recovery: the simulated clock charges
        # measured host time for compute, so a time-based breaker would
        # not replay.
        breaker_config=BreakerConfig(
            failure_threshold=3, reset_timeout_s=None, reset_after_skips=6
        ),
        runtime_config=RuntimeConfig(degrade_on_store_failure=True),
    )
    pipelined = config.pipeline or config.adaptive
    if pipelined:
        session.enable_pipeline(
            depth="auto" if config.adaptive else config.pipeline_depth,
            workers=4, coalesce=True, min_depth=1, max_depth=16,
        )

    @session.mark(version="1.0")
    def sim_workload(data: bytes) -> bytes:
        return _workload_result(data)

    # The honest-but-curious adversary: record every wire payload.
    wire: list[bytes] = []
    session.network.add_tap(lambda source, dest, payload: wire.append(payload))

    pool = [
        tagged_hash(b"simtest/input", str(config.seed).encode(), i.to_bytes(4, "big"))
        for i in range(config.inputs)
    ]
    expected = [_workload_result(data) for data in pool]
    secrets = {}
    for i, data in enumerate(pool):
        secrets[f"input[{i}]"] = data
        secrets[f"result[{i}]"] = expected[i]

    cluster = session.cluster
    shard_ids = list(cluster.shard_ids)
    store_addr = {sid: cluster.shards[sid].address for sid in shard_ids}
    client_addr = {sid: f"app->{sid}" for sid in shard_ids}
    dead: set[str] = set()
    partitioned: set[str] = set()
    corrupted_tags: set[bytes] = set()
    migrator = None  # the open streaming topology change, if any

    def refresh_topology() -> None:
        """Re-sync shard bookkeeping after a join/drain changed the map."""
        nonlocal shard_ids
        shard_ids = list(cluster.shard_ids)
        for sid in shard_ids:
            store_addr.setdefault(sid, cluster.shards[sid].address)
            client_addr.setdefault(sid, f"app->{sid}")
        for sid in list(dead):
            if sid not in cluster.shards:
                dead.discard(sid)

    rng = random.Random(config.seed)
    # Corruption targets are picked from store contents, whose size at a
    # given step depends on PUT-flush timing — i.e. on the engine depth.
    # Those draws live on their own stream so the *op schedule* stays a
    # pure function of the seed across engine configurations (the
    # adaptive-identity invariant replays the same schedule at depth 1;
    # random.Random's rejection sampling would otherwise consume a
    # depth-dependent number of bits and fork the schedule).
    target_rng = random.Random(config.seed ^ 0x7A11C0DE)
    op_table = list(_OPS)
    if config.power_fail:
        op_table.append(("power_fail", 5))
    if config.migrate:
        op_table.extend([
            ("mig_open", 4),       # start a streaming join or drain
            ("mig_step", 10),      # hand one range across
            ("mig_powerfail", 4),  # crash a migration participant mid-range
            ("mig_finish", 4),     # settle the ring once all ranges moved
        ])
    ops = [name for name, _ in op_table]
    weights = [weight for _, weight in op_table]

    values: list[bytes] = []  # ordered result bytes, for invariant 8

    def check_value(label: str, index: int, value: bytes) -> None:
        values.append(value)
        if value != expected[index]:
            violations.append(Violation(
                "correctness",
                f"{label} for input[{index}] returned wrong bytes",
                repro,
            ))

    injector.plan = plan  # arm the schedule; setup traffic stays clean
    for step in range(config.steps):
        op = rng.choices(ops, weights=weights)[0]
        if op in ("kill", "revive", "restart", "power_fail") and not config.crash_ops:
            op = "call"
        if op in ("partition", "heal", "slow") and not config.partition_ops:
            op = "call"
        if op in ("corrupt_blob", "corrupt_meta") and not config.corruption_ops:
            op = "call"

        op_calls = 1  # value-stream slots this op owes on error (invariant 8)
        values_before = len(values)
        try:
            if op == "call":
                index = rng.randrange(len(pool))
                result = sim_workload.call_result(pool[index])
                check_value("call", index, result.value)
                trace.append(
                    f"step={step} op=call input={index} "
                    f"source={result.source} degraded={result.degraded}"
                )
            elif op == "batch":
                indices = [rng.randrange(len(pool)) for _ in range(rng.randint(2, 5))]
                op_calls = len(indices)
                results = sim_workload.map_results([pool[i] for i in indices])
                for i, result in zip(indices, results):
                    check_value("batch", i, result.value)
                if pipelined:
                    violations.extend(check_coalesced(results, repro))
                outcomes = ",".join(r.source for r in results)
                trace.append(
                    f"step={step} op=batch inputs={indices} outcomes={outcomes}"
                )
            elif op == "flush":
                flushed = session.flush_puts()
                trace.append(f"step={step} op=flush puts={flushed}")
            elif op == "kill":
                alive = [s for s in shard_ids if s not in dead]
                if len(alive) > 1:  # keep at least one shard reachable
                    sid = rng.choice(alive)
                    cluster.kill_shard(sid)
                    dead.add(sid)
                    trace.append(f"step={step} op=kill shard={sid}")
                else:
                    trace.append(f"step={step} op=kill skipped")
            elif op == "revive":
                if dead:
                    sid = rng.choice(sorted(dead))
                    cluster.revive_shard(sid)
                    dead.discard(sid)
                    trace.append(f"step={step} op=revive shard={sid}")
                else:
                    trace.append(f"step={step} op=revive skipped")
            elif op == "restart":
                alive = [s for s in shard_ids if s not in dead]
                if alive:
                    sid = rng.choice(alive)
                    report = cluster.restart_shard(sid)
                    trace.append(
                        f"step={step} op=restart shard={sid} "
                        f"restored={report.entries_restored}"
                    )
                else:
                    trace.append(f"step={step} op=restart skipped")
            elif op == "power_fail":
                alive = [s for s in shard_ids if s not in dead]
                if alive:
                    sid = rng.choice(alive)
                    store = cluster.shards[sid].store
                    pre = store_image(store)
                    report = cluster.power_fail_shard(sid)
                    post = store_image(store)
                    violations.extend(
                        check_recovery(pre, post, corrupted_tags, sid, repro)
                    )
                    trace.append(
                        f"step={step} op=power_fail shard={sid} "
                        f"wiped={len(pre)} restored={len(post)} "
                        f"replayed={report.records_replayed}"
                    )
                else:
                    trace.append(f"step={step} op=power_fail skipped")
            elif op == "mig_open":
                open_already = migrator is not None and not migrator.finished
                kind_draw = rng.random()
                if open_already:
                    trace.append(f"step={step} op=mig_open skipped")
                else:
                    # Every draw comes from the schedule rng, so the
                    # window is a pure function of the seed; ``mig_kind``
                    # and ``mig_subject`` are this trace's own words for
                    # it (the migrator only knows the plan).
                    if kind_draw < 0.25 and len(cluster.shards) > 2:
                        # Planned multi-change window: two joins (one
                        # weighted), one drain, one reweight — all in a
                        # single dual-ownership window.
                        members = sorted(cluster.shards)
                        leaver = rng.choice(members)
                        reweighted = rng.choice([s for s in members if s != leaver])
                        mig_kind = "plan"
                        topo = (
                            TopologyPlan()
                            .join(weight=rng.choice((0.5, 1.0, 2.0)))
                            .join()
                            .leave(leaver)
                            .reweight(reweighted, rng.choice((0.5, 1.5, 2.0)))
                        )
                    elif kind_draw < 0.625 and len(cluster.shards) > 2:
                        mig_kind = "leave"
                        topo = TopologyPlan().leave(rng.choice(sorted(cluster.shards)))
                    else:
                        mig_kind = "join"
                        topo = TopologyPlan().join()
                    migrator = cluster.begin_plan(topo)
                    refresh_topology()
                    if mig_kind == "plan":
                        mig_subject = migrator.label
                        named = f"label={mig_subject}"
                    else:
                        (mig_subject,) = migrator.joiners | migrator.leavers
                        named = f"shard={mig_subject}"
                    trace.append(
                        f"step={step} op=mig_open kind={mig_kind} {named} "
                        f"ranges={len(migrator.ranges)}"
                    )
            elif op == "mig_step":
                if migrator is None or migrator.finished:
                    trace.append(f"step={step} op=mig_step skipped")
                elif not migrator.pending_ranges():
                    trace.append(f"step={step} op=mig_step drained")
                elif migrator.step():
                    done = len(migrator.ranges) - len(migrator.pending_ranges())
                    trace.append(
                        f"step={step} op=mig_step "
                        f"committed={done}/{len(migrator.ranges)}"
                    )
                else:
                    trace.append(f"step={step} op=mig_step blocked")
            elif op == "mig_powerfail":
                # Crash a *participant* of the open hand-off mid-range —
                # the source that just discarded or the destination that
                # just ingested — and hold recovery to invariant 6.
                participants = [
                    sid
                    for sid in (
                        migrator.participants
                        if migrator is not None and not migrator.finished
                        else ()
                    )
                    if sid in cluster.shards and sid not in dead
                ]
                if participants:
                    sid = rng.choice(sorted(participants))
                    store = cluster.shards[sid].store
                    pre = store_image(store)
                    report = cluster.power_fail_shard(sid)
                    post = store_image(store)
                    violations.extend(
                        check_recovery(pre, post, corrupted_tags, sid, repro)
                    )
                    trace.append(
                        f"step={step} op=mig_powerfail shard={sid} "
                        f"replayed={report.records_replayed} "
                        f"marks={report.migrate_marks_replayed}"
                    )
                else:
                    trace.append(f"step={step} op=mig_powerfail skipped")
            elif op == "mig_finish":
                if migrator is None or migrator.finished:
                    trace.append(f"step={step} op=mig_finish skipped")
                elif migrator.pending_ranges():
                    trace.append(f"step={step} op=mig_finish deferred")
                else:
                    migrator.finish()
                    refresh_topology()
                    trace.append(
                        f"step={step} op=mig_finish kind={mig_kind} "
                        f"shard={mig_subject} moved={migrator.moved} "
                        f"dropped={migrator.dropped}"
                    )
            elif op == "partition":
                candidates = [s for s in shard_ids if s not in partitioned]
                if len(candidates) > 1:  # never partition the whole cluster
                    sid = rng.choice(candidates)
                    plan.block(client_addr[sid], store_addr[sid])
                    plan.block(store_addr[sid], client_addr[sid])
                    partitioned.add(sid)
                    trace.append(f"step={step} op=partition shard={sid}")
                else:
                    trace.append(f"step={step} op=partition skipped")
            elif op == "heal":
                plan.heal()
                partitioned.clear()
                trace.append(f"step={step} op=heal")
            elif op == "slow":
                sid = rng.choice(shard_ids)
                ticks = rng.randint(1, config.max_delay)
                plan.set_slow(store_addr[sid], ticks)
                trace.append(f"step={step} op=slow shard={sid} ticks={ticks}")
            elif op == "corrupt_blob":
                sid = rng.choice(shard_ids)
                store = cluster.shards[sid].store
                tags = store.stored_tags()
                if tags:
                    tag = tags[target_rng.randrange(len(tags))]
                    store.blobstore.tamper(store.blob_ref_of(tag))
                    corrupted_tags.add(tag)
                    trace.append(
                        f"step={step} op=corrupt_blob shard={sid} "
                        f"tag={tag.hex()[:12]}"
                    )
                else:
                    trace.append(f"step={step} op=corrupt_blob skipped")
            elif op == "corrupt_meta":
                sid = rng.choice(shard_ids)
                store = cluster.shards[sid].store
                tags = store.stored_tags()
                if tags:
                    tag = tags[target_rng.randrange(len(tags))]
                    entry = store.metadata_entry(tag)
                    entry.wrapped_key = corrupt_payload(entry.wrapped_key)
                    trace.append(
                        f"step={step} op=corrupt_meta shard={sid} "
                        f"tag={tag.hex()[:12]}"
                    )
                else:
                    trace.append(f"step={step} op=corrupt_meta skipped")
        except SpeedError as exc:
            # The hardened client path (retry -> failover -> degrade)
            # should absorb every injected fault; an error surfacing to
            # the application is itself a finding.
            violations.append(Violation(
                "liveness",
                f"step {step} op {op} raised {type(exc).__name__}: {exc}",
                repro,
            ))
            trace.append(f"step={step} op={op} error={type(exc).__name__}")
            if op in ("call", "batch"):
                # Keep the value streams of the adaptive and depth-1
                # runs aligned even when a call surfaced an error (a
                # liveness violation is already recorded above): every
                # planned call of this op gets a sentinel slot.
                owed = op_calls - (len(values) - values_before)
                values.extend([b"<error>"] * max(0, owed))

    # -- heal and settle -------------------------------------------------------
    injector.plan = None
    plan.heal()
    for sid in sorted(dead):
        cluster.revive_shard(sid)
    dead.clear()
    session.network.flush_delayed()
    if migrator is not None and not migrator.finished:
        # Every shard is alive again, so no range can stay blocked.
        while migrator.pending_ranges():
            if not migrator.step():
                break
        if migrator.pending_ranges():
            violations.append(Violation(
                "single_owner",
                "open migration could not drain after heal",
                repro,
            ))
        else:
            migrator.finish()
            refresh_topology()
            trace.append(
                f"phase=settle migration={mig_kind} finished "
                f"moved={migrator.moved}"
            )
    for _ in range(3):
        session.flush_puts()
        session.network.flush_delayed()
    trace.append("phase=settle")
    if config.adaptive:
        # The controller's decision log joins the digested trace, so a
        # replay whose decisions diverge anywhere is a digest mismatch.
        controller = session.runtime.engine.controller
        trace.append(
            f"phase=adaptive decisions={controller.decisions} "
            f"changes={controller.changes} shrinks={controller.shrinks} "
            f"caps={controller.migration_capped} "
            f"log={controller.log_digest()[:16]}"
        )

    # -- invariants ------------------------------------------------------------
    if config.migrate and not cluster.ring.in_transition:
        # One anti-entropy pass repairs placement drift from crashes and
        # replicas that were dead mid-migration, then the single-owner
        # invariant must hold exactly.
        from ..cluster.migration import rebalance

        repair = rebalance(cluster)
        trace.append(
            f"phase=rebalance moved={repair.moved} dropped={repair.dropped}"
        )
    if config.migrate:
        violations.extend(check_single_owner(
            session.runtime.acked_put_tags, corrupted_tags, cluster, repro,
        ))
    violations.extend(check_durability(
        session.runtime.acked_put_tags, corrupted_tags, cluster, repro,
    ))
    violations.extend(check_confidentiality(secrets, wire, repro))
    violations.extend(check_conservation(session.stats, repro))
    if config.adaptive:
        # Invariant 8: replay the identical schedule with a fixed
        # depth-1 engine — per-call result bytes must match exactly
        # (depth is a schedule knob, never a semantic one).
        reference = run_scenario(replace(
            config, adaptive=False, pipeline=True, pipeline_depth=1,
        ))
        violations.extend(
            check_adaptive_identical(values, reference.values, repro)
        )

    snap = session.snapshot()
    counters = {key: snap[key] for key in _TRACE_COUNTERS if key in snap}
    for key in sorted(counters):
        trace.append(f"counter {key}={counters[key]}")
    for violation in violations:
        trace.append(str(violation))

    return ScenarioResult(
        config=config, trace=trace, violations=violations, counters=counters,
        values=values,
    )


def run_seeds(seeds, **overrides) -> list[ScenarioResult]:
    """Run one scenario per seed (the CI sweep entry point)."""
    return [run_scenario(SimConfig(seed=seed, **overrides)) for seed in seeds]


def replay_check(config: SimConfig) -> tuple[ScenarioResult, ScenarioResult, bool]:
    """Run a config twice; True iff the traces are byte-identical."""
    first = run_scenario(config)
    second = run_scenario(config)
    return first, second, first.digest == second.digest
