"""The unified public entry point: :func:`connect` / :class:`Session`.

Historically every caller hand-assembled the topology — a platform, a
network, a :class:`~repro.deployment.Deployment`, an application,
parsers, and (since this release) a tracer and a metrics registry.  A
:class:`Session` packages all of it behind one object::

    import repro

    session = repro.connect()             # Fig. 1: one shard on the app machine
    session = repro.connect(shards=4, replication_factor=2)  # shard machines

    @session.mark(version="1.0")
    def normalize(data: bytes) -> bytes:
        ...

    normalize(payload)            # deduplicated call, as normal
    print(session.trace_table())  # the call's connected span tree
    print(session.to_json())      # every component's counters, one dict

Every session is the same deployment: the application's runtime talks
to a :class:`~repro.cluster.StoreCluster` through a
:class:`~repro.cluster.ClusterRouter`, and Fig. 1 differs from a
cluster only in where its one shard is placed.  The session owns one
:class:`~repro.obs.Tracer` and threads it through the runtime, the
application enclave, both channel endpoints, the router, and every
store shard — so a single
:meth:`Session.execute` yields one connected span tree covering tag
derivation, enclave transitions, channel crypto, RPC, shard routing, and
store metadata/blob access.  It also owns one
:class:`~repro.obs.MetricsRegistry` with every component's stats
registered as live sources, unifying the historical per-component
``snapshot()`` shapes behind one ``snapshot()``/``to_json()`` contract.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .cluster.ring import TopologyPlan
from .core.decorator import deduplicable_marker
from .core.deduplicable import Deduplicable
from .core.description import FunctionDescription, TrustedLibrary, TrustedLibraryRegistry
from .core.runtime import DedupResult, RuntimeConfig
from .core.serialization import Parser
from .deployment import Application, Deployment
from .obs.exporters import format_phase_breakdown, format_trace
from .obs.metrics import MetricsRegistry
from .obs.tracer import NULL_TRACER, SlowCall, Span, SpanNode, Tracer
from .report import ReportMixin
from .sgx.cost_model import CostParams
from .store.resultstore import StoreConfig


@dataclass(frozen=True)
class TopologyReport(ReportMixin):
    """Outcome of one :class:`Session` topology change.

    ``foreground_stalls`` counts migration batches that blocked the
    caller (no pipeline engine attached to overlap them); ``duration_s``
    is the simulated wall time of the change — the largest clock advance
    any participating machine observed.
    """

    action: str            # "add_shard" | "remove_shard" | "apply_topology" | "rebalance"
    shard_id: str          # the changed shard (plan label / "" for plans)
    ranges_moved: int      # ring ranges whose owner set changed
    entries_moved: int     # entries newly ingested at their new owners
    bytes_moved: int       # ciphertext bytes that crossed machines
    duplicates: int        # offered entries the destination already held
    dropped: int           # entries discarded by shards losing ownership
    transfers: int         # attested channel payloads shipped
    batches: int           # bounded streaming batches shipped
    foreground_stalls: int # batches shipped without background overlap
    duration_s: float      # simulated wall time of the change


def connect(
    *,
    shards: int = 0,
    replication_factor: int = 2,
    app_name: str = "app",
    machine: str | None = None,
    libraries: TrustedLibraryRegistry | None = None,
    seed: bytes = b"speed-session",
    attestation_service: Any = None,
    store_config: StoreConfig | None = None,
    runtime_config: RuntimeConfig | None = None,
    cost_params: CostParams | None = None,
    vnodes: int = 32,
    epc_usable_bytes: int | None = None,
    tracing: bool = True,
    slow_sim_threshold_s: float | None = None,
    slow_wall_threshold_s: float | None = None,
    fault_injector: Any = None,
    retry_policy: Any = None,
    breaker_config: Any = None,
) -> "Session":
    """Assemble a full SPEED deployment and return its :class:`Session`.

    Every session is one application machine whose runtime reaches a
    shard cluster through a router.  ``shards=0`` (the default) is the
    paper's Fig. 1: one shard on the app machine, so the application and
    the ResultStore share one simulated SGX machine.  ``shards >= 1``
    places that many shards on machines of their own, with
    ``replication_factor`` copies of every entry.  Either way the
    session has the cluster's operations (``add_shard``,
    ``power_fail_shard``, ...).

    ``tracing=False`` swaps the tracer for the no-op
    :data:`~repro.obs.NULL_TRACER` (metrics sources stay live).

    ``machine`` names the application machine, and a shared
    ``attestation_service`` lets several sessions attest each other's
    enclaves (the cross-machine replication story); both default to the
    deployment's own defaults when omitted.

    The hardening knobs are optional and off by default, and apply to
    every session: ``fault_injector`` supplies a pre-configured
    :class:`~repro.net.transport.FaultInjector` (e.g. one carrying a
    simulation :class:`~repro.simtest.FaultPlan`); ``retry_policy``
    applies an :class:`~repro.net.rpc.RetryPolicy` to every shard
    client; ``breaker_config`` enables per-shard circuit breakers on the
    router.
    """
    tracer: Tracer | Any
    if tracing:
        tracer = Tracer(
            slow_sim_threshold_s=slow_sim_threshold_s,
            slow_wall_threshold_s=slow_wall_threshold_s,
        )
    else:
        tracer = NULL_TRACER
    libraries = libraries or TrustedLibraryRegistry()
    extra: dict[str, Any] = {}
    if machine is not None:
        extra["machine"] = machine
    if attestation_service is not None:
        extra["attestation_service"] = attestation_service
    if fault_injector is not None:
        extra["fault_injector"] = fault_injector

    deployment = Deployment(
        seed=seed,
        n_shards=max(shards, 0),
        replication_factor=replication_factor,
        vnodes=vnodes,
        store_config=store_config,
        cost_params=cost_params,
        epc_usable_bytes=epc_usable_bytes,
        tracer=tracer,
        **extra,
    )
    app = deployment.create_application(app_name, libraries, runtime_config)
    router = app.runtime.client
    if retry_policy is not None:
        router.set_retry_policy(retry_policy)
    if breaker_config is not None:
        router.enable_breakers(breaker_config)
    return Session(deployment, app, tracer)


class Session:
    """One connected application plus its observability surface."""

    def __init__(
        self,
        deployment: Deployment,
        app: Application,
        tracer: "Tracer | Any" = NULL_TRACER,
    ):
        self.deployment = deployment
        self.app = app
        self.runtime = app.runtime
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = MetricsRegistry()
        self._deduplicables: dict[FunctionDescription, Deduplicable] = {}
        self._mark = deduplicable_marker(app)
        self.metrics.register_source("runtime", self.runtime.snapshot)
        self.metrics.register_source("net", deployment.network.snapshot)
        self.metrics.register_source("router", self.runtime.client.snapshot)
        self.metrics.register_source("store", self._shard_metrics)

    def _shard_metrics(self) -> dict:
        """Every shard's store counters under ``store.<shard_id>.<metric>``
        (``store.<shard_id>.durable.*`` for its WAL's), read from the
        cluster's membership at snapshot time — so every session on the
        deployment reports the same shards, whoever changed the topology.
        A lone shard on the app machine reports under flat ``store.*``
        keys (see :attr:`is_cluster`)."""
        if not self.is_cluster:
            return self.store.snapshot()
        out = {}
        for shard_id, node in sorted(self.deployment.cluster.shards.items()):
            for key, value in node.store.snapshot().items():
                out[f"store.{shard_id}.{key.removeprefix('store.')}"] = value
        return out

    def sibling(
        self,
        app_name: str,
        libraries: TrustedLibraryRegistry | None = None,
        runtime_config: RuntimeConfig | None = None,
    ) -> "Session":
        """A second application on this session's deployment.

        This is the paper's cross-application story: the sibling gets its
        own enclave and runtime but shares the store (or cluster), the
        attestation service, and the tracer — so results one application
        computes are hits for the other, and both show up in one trace.
        By default the sibling shares this session's library registry.
        """
        libraries = libraries if libraries is not None else self.runtime.libraries
        app = self.deployment.create_application(
            app_name, libraries, runtime_config
        )
        return Session(self.deployment, app, self.tracer)

    # -- registration ---------------------------------------------------------
    def register(self, library: TrustedLibrary) -> "Session":
        """Register a trusted library with the application runtime."""
        self.runtime.libraries.register(library)
        return self

    def mark(
        self,
        version: str = "0.0",
        signature: str | None = None,
        input_parser: Parser | None = None,
        result_parser: Parser | None = None,
        native_cost: Callable[..., float] | None = None,
    ) -> Callable[[Callable], Callable]:
        """Decorator marking a self-defined function as deduplicable
        (the :func:`~repro.core.decorator.deduplicable_marker` front end
        bound to this session's application); ``native_cost`` declares
        what a computed call charges the virtual clock."""
        return self._mark(
            version=version,
            signature=signature,
            input_parser=input_parser,
            result_parser=result_parser,
            native_cost=native_cost,
        )

    def deduplicable(
        self,
        description: FunctionDescription,
        input_parser: Parser | None = None,
        result_parser: Parser | None = None,
    ) -> Deduplicable:
        """The Deduplicable version of a registered function (cached per
        description when no custom parsers are supplied)."""
        custom = input_parser is not None or result_parser is not None
        if not custom and description in self._deduplicables:
            return self._deduplicables[description]
        dedup = self.app.deduplicable(
            description,
            input_parser=input_parser,
            result_parser=result_parser,
        )
        if not custom:
            self._deduplicables[description] = dedup
        return dedup

    # -- execution ------------------------------------------------------------
    def execute(self, description: FunctionDescription, *args: Any) -> Any:
        """Run one deduplicated call of a registered function."""
        return self.deduplicable(description)(*args)

    def execute_result(
        self, description: FunctionDescription, *args: Any
    ) -> DedupResult:
        """Like :meth:`execute`, returning the full
        :class:`~repro.core.runtime.DedupResult`."""
        return self.deduplicable(description).call_result(*args)

    def execute_many(
        self, description: FunctionDescription, inputs: Sequence[Any]
    ) -> list[Any]:
        """Run a batch under one enclave entry (see
        :meth:`~repro.core.runtime.DedupRuntime.execute_many`)."""
        return self.deduplicable(description).map(inputs)

    def execute_many_results(
        self, description: FunctionDescription, inputs: Sequence[Any]
    ) -> list[DedupResult]:
        return self.deduplicable(description).map_results(inputs)

    def flush_puts(self) -> int:
        """Drain the asynchronous PUT queue off the critical path."""
        return self.runtime.flush_puts()

    def enable_pipeline(
        self,
        depth: int = 8,
        workers: int = 4,
        coalesce: bool = True,
    ):
        """Attach a pipelined execution engine to this session's runtime.

        Batched store GETs/PUTs then travel through the engine's
        multi-slot ``submit()/wait()`` fan-out with single-flight tag
        coalescing (see :mod:`repro.engine`), and async PUT drains are
        accounted as its background lane.  Results and counters are
        byte-identical to the serial path; the engine additionally
        reports the overlapped schedule's critical-path simulated time.
        Returns the attached :class:`~repro.engine.PipelineEngine`.
        """
        from .engine import EngineConfig, PipelineEngine

        cluster = self.cluster

        def shard_clocks() -> dict:
            # Read live so shards revived onto fresh platforms are still
            # accounted against the right machine clock.  A shard on the
            # app machine shares its clock, which the engine discounts:
            # one machine cannot overlap with itself.
            return {
                shard_id: node.platform.clock
                for shard_id, node in cluster.shards.items()
            }

        engine = PipelineEngine(
            self.runtime.client,
            self.clock,
            shard_clocks=shard_clocks,
            config=EngineConfig(depth=depth, workers=workers, coalesce=coalesce),
            tracer=self.tracer,
        )
        self.runtime.attach_engine(engine)
        self.metrics.register_source("engine", engine.snapshot)
        return engine

    def close(self) -> int:
        """Flush all queued PUTs, settle engine accounting, and refuse
        further queued work (see :meth:`DedupRuntime.close`)."""
        return self.runtime.close()

    # -- topology -------------------------------------------------------------
    @property
    def is_cluster(self) -> bool:
        """False while the session's one shard sits on the app machine.

        The one co-location check, kept for ``benchmarks/e2e/measure.py``:
        on such a session it counts the app machine alone and reads the
        store's counters under flat ``store.*`` keys."""
        shards = list(self.cluster.shards.values())
        return not (len(shards) == 1 and shards[0].platform is self.platform)

    @property
    def cluster(self):
        """The shard cluster behind this session's router."""
        return self.deployment.cluster

    @property
    def store(self):
        """The ResultStore of a one-shard session (refused on more)."""
        return self.deployment.store

    @property
    def network(self):
        """The deployment's simulated network (fault-injection surface)."""
        return self.deployment.network

    @property
    def fault(self):
        """The network's fault injector."""
        return self.deployment.network.ensure_fault_injector()

    @property
    def clock(self):
        """The application machine's simulated clock."""
        return self.deployment.clock

    @property
    def platform(self):
        """The application machine's simulated SGX platform."""
        return self.deployment.platform

    @property
    def enclave(self):
        """This application's enclave."""
        return self.app.enclave

    @property
    def stats(self):
        """This application's runtime counters (RuntimeStats)."""
        return self.runtime.stats

    def add_shard(
        self,
        shard_id: str | None = None,
        batch_entries: int = 32,
        weight: float = 1.0,
    ) -> TopologyReport:
        """Grow the cluster by one shard, online.

        The new machine is spawned, attested, and connected to every
        router; the ring opens a dual-ownership window and the tag
        ranges the newcomer owns stream over in ``batch_entries``-sized
        batches while foreground GET/PUT traffic keeps flowing (reads
        fail over old→new owners per range, writes land on the new
        owners).  ``weight`` sets the shard's relative capacity — its
        vnode count scales with it, so a weight-2.0 shard owns twice
        the tag share of a weight-1.0 one.  With a pipeline engine
        attached (:meth:`enable_pipeline`) each batch is accounted as a
        background lane; without one, each batch is a foreground stall.
        Crash-safe: both sides seal MIGRATE_* marks into their durable
        WALs (durable stores), so a power failure mid-migration recovers
        consistently.  Sugar for a one-join plan through
        :meth:`apply_topology`; the returned :class:`TopologyReport`
        names the new shard.
        """
        report = self.apply_topology(
            TopologyPlan().join(shard_id, weight), batch_entries
        )
        # A one-join plan's label is "+" and the (possibly auto-assigned) id.
        return dataclasses.replace(
            report, action="add_shard", shard_id=report.shard_id.removeprefix("+")
        )

    def apply_topology(
        self, plan, batch_entries: int = 32
    ) -> TopologyReport:
        """Apply a whole :class:`~repro.cluster.ring.TopologyPlan` —
        any mix of joins, leaves, and reweights — as **one** online
        dual-ownership window.

        Where N serialized ``add_shard()``/``remove_shard()`` calls pay
        N migration windows (and may move the same entries repeatedly as
        intermediate rings shift ownership back and forth), a plan
        computes the single old→new range diff and hands every moved
        range off once::

            from repro import TopologyPlan

            plan = (TopologyPlan()
                    .join(weight=2.0)       # auto-named big machine
                    .join("cache-b")
                    .leave("shard-0")
                    .reweight("shard-1", 0.5))
            report = session.apply_topology(plan)

        This is the one driver of a topology change — open the window,
        stream it, back out through the cluster on failure —
        :meth:`add_shard`, :meth:`remove_shard` and
        :meth:`rebalance` ``(weights)`` build their plan and call it.
        With a pipeline engine attached the window's transfers overlap
        foreground rounds one lane per gaining shard.  Returns a
        :class:`TopologyReport` whose ``shard_id`` is the plan's compact
        label (e.g. ``"+s4+s5-s0~s1"``)."""
        cluster = self.cluster
        migrator = cluster.begin_plan(plan, batch_entries, self.runtime.engine)
        before = self._machine_clock_marks()
        try:
            report = migrator.run()
        except Exception:
            if not migrator.finished:
                # Through the cluster: plain migrator.abort() would
                # restore the ring but leave the joiner machines attached
                # to every router.
                cluster.abort_plan(migrator)
            raise
        return self._report(
            "apply_topology", migrator.label, report,
            migrator.stalled_batches, before,
        )

    def remove_shard(
        self, shard_id: str, batch_entries: int = 32
    ) -> TopologyReport:
        """Drain one shard online and take it off the ring.

        The leaver keeps serving reads for each range until that range's
        hand-off commits; once all ranges are handed to the surviving
        owners the ring settles and the shard goes dark.  Same streaming
        and crash-safety machinery as :meth:`add_shard`; sugar for a
        one-leave plan through :meth:`apply_topology`."""
        report = self.apply_topology(
            TopologyPlan().leave(shard_id), batch_entries
        )
        return dataclasses.replace(
            report, action="remove_shard", shard_id=shard_id
        )

    def rebalance(self, weights: dict | None = None) -> TopologyReport:
        """Repair or reshape placement under the current membership.

        Without ``weights`` this is the classic anti-entropy pass under
        the settled ring: push every entry to owners missing it and drop
        copies from non-owners — repairs placement drift left by crashes
        or replicas that were dead during a migration.  Idempotent.

        With ``weights`` (a ``{shard_id: weight}`` mapping over existing
        members) the shards are *reweighted* instead: one streaming
        dual-ownership window (a reweight-only
        :class:`~repro.cluster.ring.TopologyPlan`) migrates entries so
        each shard's ownership share tracks its new weight fraction.
        Shards already at the requested weight are left alone."""
        from .cluster.migration import MigrationReport, rebalance

        cluster = self.cluster
        if weights:
            plan = TopologyPlan()
            for sid in sorted(weights):
                if cluster.ring.weight_of(sid) != weights[sid]:
                    plan = plan.reweight(sid, weights[sid])
            if plan.empty:
                return self._report(
                    "rebalance", "", MigrationReport(), 0,
                    self._machine_clock_marks(),
                )
            report = self.apply_topology(plan)
            return dataclasses.replace(report, action="rebalance")
        before = self._machine_clock_marks()
        report = rebalance(cluster)
        # Anti-entropy ships outside any engine lane: every transfer stalls.
        return self._report("rebalance", "", report, report.transfers, before)

    def _report(
        self, action: str, shard_id: str, report, stalls: int, before: dict
    ) -> TopologyReport:
        """A :class:`~repro.cluster.migration.MigrationReport` under the
        session's field names, timed from the clock marks ``before``."""
        return TopologyReport(
            action=action,
            shard_id=shard_id,
            ranges_moved=report.ranges_moved,
            entries_moved=report.moved,
            bytes_moved=report.bytes_moved,
            duplicates=report.duplicates,
            dropped=report.dropped,
            transfers=report.transfers,
            batches=report.batches,
            foreground_stalls=stalls,
            duration_s=self._machine_clock_delta(before),
        )

    def _machine_clock_marks(self) -> dict:
        marks = {"app": self.clock.elapsed_seconds()}
        for shard_id, node in self.cluster.shards.items():
            marks[shard_id] = node.platform.clock.elapsed_seconds()
        return marks

    def _machine_clock_delta(self, before: dict) -> float:
        """Largest clock advance any machine saw (machines run in
        parallel, so the busiest one bounds the simulated wall time).  A
        shard spawned after the marks (a joiner) starts from zero."""
        delta = self.clock.elapsed_seconds() - before["app"]
        for shard_id, node in self.cluster.shards.items():
            prior = before.get(shard_id, 0.0)
            delta = max(delta, node.platform.clock.elapsed_seconds() - prior)
        return delta

    def kill_shard(self, shard_id: str) -> None:
        self.cluster.kill_shard(shard_id)

    def revive_shard(self, shard_id: str) -> None:
        self.cluster.revive_shard(shard_id)

    def power_fail_shard(self, shard_id: str):
        """Power-fail one shard and recover it from its durable log (see
        :meth:`~repro.cluster.cluster.StoreCluster.power_fail_shard`);
        requires ``StoreConfig(durable=True)``.  Returns the
        :class:`~repro.durable.recovery.RecoveryReport`."""
        return self.cluster.power_fail_shard(shard_id)

    # -- observability ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Every component's counters, one flat canonical dict."""
        return self.metrics.snapshot()

    def to_json(self, indent: int | None = None) -> str:
        return self.metrics.to_json(indent=indent)

    def last_trace(self) -> list[Span]:
        """All spans of the most recent traced request."""
        return self.tracer.last_trace() if self.tracer.enabled else []

    def trace_tree(self) -> list[SpanNode]:
        """Parent/child-linked roots of the most recent trace."""
        return self.tracer.tree() if self.tracer.enabled else []

    def trace_table(self, title: str | None = None) -> str:
        """The most recent trace as an indented human-readable table."""
        return format_trace(self.last_trace(), title=title)

    def phase_breakdown(self) -> dict:
        """Cumulative per-phase latency totals (wall + simulated)."""
        return self.tracer.phase_breakdown() if self.tracer.enabled else {}

    def phase_table(self, title: str | None = None) -> str:
        return format_phase_breakdown(self.phase_breakdown(), title=title)

    def slow_calls(self) -> list[SlowCall]:
        """The slow-call log (spans over the configured thresholds)."""
        return list(self.tracer.slow_log) if self.tracer.enabled else []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Session app={self.app.name!r} shards={self.cluster.shard_ids}>"
