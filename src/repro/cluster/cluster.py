"""The server side of every ResultStore deployment.

A :class:`StoreCluster` runs N shards — each a full
:class:`~repro.store.resultstore.ResultStore` on its **own** simulated
machine (:class:`~repro.sgx.platform.SgxPlatform`), so every shard has
its own store enclave, its own EPC budget and paging behaviour, its own
quota pool, and its own clock.  What the shards share is the tag-space
partition (the :class:`~repro.cluster.ring.ShardRing`) and the quoting
infrastructure that lets applications and sibling shards attest them
remotely.  The paper's Fig. 1 is the one-shard case with the shard
placed on the application machine (``host``): applications there
attest it locally, and only such a co-located shard may run a non-SGX
store (Fig. 6's "w/o SGX" baseline).

Failures are injected at the transport: killing a shard adds its address
to the network :class:`~repro.net.transport.FaultInjector`'s dead set,
so requests to it vanish on the wire and callers observe timeouts — the
same observable behaviour as a crashed store process.  A revived shard
keeps its pre-crash state (crash-pause model); entries it missed while
dead flow back through read-repair.

The ring can also grow, shrink and reweight live.  Every change is a
:class:`~repro.cluster.ring.TopologyPlan` through one opener,
:meth:`StoreCluster.begin_plan` (driven by ``Session.apply_topology()``
and its ``add_shard()``/``remove_shard()`` sugar): it opens a
dual-ownership window and hands tag ranges off in bounded batches over
mutually attested store-to-store channels
(:mod:`repro.cluster.migration`) while foreground traffic keeps flowing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .migration import RangeMigrator
from .ring import REPLICATION_FACTOR, VNODES, ShardRing, TopologyPlan
from .router import ClusterRouter
from ..errors import MigrationError, SpeedError
from ..net.rpc import RpcClient
from ..net.transport import FaultInjector, Network
from ..obs.tracer import NULL_TRACER
from ..sgx.attestation import AttestationService
from ..sgx.cost_model import CostParams
from ..sgx.enclave import Enclave
from ..sgx.platform import SgxPlatform
from ..store.resultstore import ResultStore, StoreConfig


@dataclass(frozen=True)
class ClusterConfig:
    """Topology knobs for one StoreCluster."""

    n_shards: int = 4
    replication_factor: int = REPLICATION_FACTOR
    vnodes: int = VNODES
    # Template applied to every shard (it is frozen, so sharing is safe);
    # each shard still gets its own QuotaManager/eviction state from it.
    store_config: StoreConfig = field(default_factory=StoreConfig)


@dataclass
class ShardNode:
    """One shard: its machine, its store, and its network address."""

    shard_id: str
    platform: SgxPlatform
    store: ResultStore

    @property
    def address(self) -> str:
        return self.store.address


class StoreCluster:
    """N ResultStore shards behind one consistent-hash ring."""

    def __init__(
        self,
        network: Network,
        attestation_service: AttestationService,
        config: ClusterConfig | None = None,
        seed: bytes = b"speed-cluster",
        cost_params: CostParams | None = None,
        tracer=NULL_TRACER,
        host: SgxPlatform | None = None,
    ):
        self.network = network
        self.attestation = attestation_service
        self.config = config or ClusterConfig()
        self.tracer = NULL_TRACER if tracer is None else tracer
        if self.config.n_shards < 1:
            raise SpeedError("a cluster needs at least one shard")
        if host is not None and self.config.n_shards != 1:
            raise SpeedError("only a one-shard cluster can be placed on a host machine")
        self._seed = seed
        self._cost_params = cost_params
        self.fault: FaultInjector = network.ensure_fault_injector()
        self.ring = ShardRing(vnodes=self.config.vnodes)
        self.shards: dict[str, ShardNode] = {}
        self._spawned = 0
        # Ids of machines that left; a platform id is provisioned once.
        self._retired: set[str] = set()
        self._migration_seq = 0
        # Routers to retro-fit when the ring grows: (app name, enclave, router).
        self._routers: list[tuple[str, Enclave, ClusterRouter]] = []
        for _ in range(self.config.n_shards):
            self._spawn_shard(host=host)

    # -- shard lifecycle -------------------------------------------------------
    def _spawn_shard(
        self, shard_id: str | None = None, register: bool = True,
        host: SgxPlatform | None = None,
    ) -> ShardNode:
        """Start one shard's store on ``host`` (co-located with the
        applications there) or, by default, on a machine of its own."""
        shard_id = shard_id or f"shard-{self._spawned}"
        platform = host
        if platform is None:
            if not self.config.store_config.use_sgx:
                raise SpeedError(
                    "only a shard co-located with its applications may run a non-SGX store"
                )
            platform = SgxPlatform(
                seed=self._seed + b"/" + shard_id.encode(),
                name=shard_id,
                params=self._cost_params,
                attestation_service=self.attestation,
            )
        store = ResultStore(
            platform,
            self.network,
            address=f"resultstore@{platform.name}",
            config=self.config.store_config,
            seed=self._seed + b"/store/" + shard_id.encode(),
            tracer=self.tracer,
        )
        node = ShardNode(shard_id=shard_id, platform=platform, store=store)
        self.shards[shard_id] = node
        self._spawned += 1
        if register:
            # Streaming joins keep the shard off the ring until the
            # dual-ownership transition opens (ring.begin_plan).
            self.ring.add_shard(shard_id)
        return node

    # -- streaming topology changes -------------------------------------------
    def next_migration_seq(self) -> int:
        self._migration_seq += 1
        return self._migration_seq

    def begin_plan(
        self, plan: TopologyPlan, batch_entries: int = 32, engine=None
    ) -> RangeMigrator:
        """Open **one** streaming window applying every change in
        ``plan`` — N joins, leaves, and reweights pay a single
        dual-ownership window instead of N serialized ones; a lone join
        or drain is a one-change plan.

        Anonymous joins — ``join(None)`` — are named first (the
        ``shard-<n>`` the cluster's spawn count gives them), then the
        whole plan is checked once, before any machine exists: an id a
        departed machine already used is refused here, everything else —
        unknown leaver or reweight target, a joiner already on the ring,
        the last shard, a window already open — by
        :meth:`ShardRing.begin_plan`.  A refused open therefore leaves
        nothing behind.  Only then are the joiner machines spawned and
        attached to every registered router, so writes can land on them
        the moment a caller routes by the pending ring.
        ``batch_entries`` bounds one attested hand-off payload.  Returns
        the :class:`RangeMigrator` streaming the window; drive it with
        ``step()``/``finish()`` (or ``run()``), or back out with
        :meth:`abort_plan`."""
        plan = replace(plan, joins=tuple(
            (sid or f"shard-{self._spawned + i}", weight)
            for i, (sid, weight) in enumerate(plan.joins)
        ))
        for sid, _weight in plan.joins:
            if sid in self._retired:
                raise MigrationError(
                    f"shard id {sid!r} was used by a machine that left this cluster"
                )
        self.ring.begin_plan(plan, self.config.replication_factor)
        try:
            for sid, _weight in plan.joins:
                self._attach_joiner(sid)
            return RangeMigrator(self, plan, batch_entries, engine)
        except Exception:
            self.ring.abort_transition()
            for sid, _weight in plan.joins:
                self.despawn_shard(sid)
            raise

    def abort_plan(self, migrator: RangeMigrator) -> None:
        """Back out of an open window (e.g. a joiner refused a batch for
        capacity): restore the old ownership map, clean partially
        migrated copies, and despawn every joiner the plan had spawned
        (leavers and reweighted shards stay)."""
        migrator.abort()
        for sid in sorted(migrator.joiners):
            self.despawn_shard(sid)

    def _attach_joiner(self, shard_id: str) -> ShardNode:
        """Spawn a joining shard off-ring and connect it to every
        registered router, so writes can land on it the moment the
        pending ring makes it an owner."""
        node = self._spawn_shard(shard_id, register=False)
        for app_name, enclave, router in self._routers:
            router.attach_shard(node.shard_id, self._attest(node, app_name, enclave))
        return node

    def despawn_shard(self, shard_id: str) -> None:
        """Take a machine out of the deployment: every router forgets it
        and it goes dark with its state in place.  The last step of a
        drain (the ring has settled without it) and of an aborted join."""
        node = self.shards.pop(shard_id, None)
        if node is None:
            return
        self._retired.add(shard_id)
        for _name, _enclave, router in self._routers:
            router.detach_shard(shard_id)
        self.fault.kill(node.address)

    # -- failure injection -----------------------------------------------------
    def kill_shard(self, shard_id: str) -> None:
        """Crash a shard: its traffic vanishes at the transport, so every
        caller sees timeouts.  State is retained (crash-pause model)."""
        self.fault.kill(self._node(shard_id).address)

    def revive_shard(self, shard_id: str) -> None:
        self.fault.revive(self._node(shard_id).address)

    def restart_shard(self, shard_id: str):
        """Crash-*restart* a shard through the persistence path: seal a
        snapshot of its state, wipe the in-memory dictionary and blob
        arena (the crash), restore the image the host kept into the
        (reused) store enclave, and let traffic reach it again.  Unlike
        :meth:`kill_shard`'s crash-pause, state round-trips through a
        sealed image and the store's insert path, so restore bugs become
        losses the simulation harness can observe.  Returns the
        :class:`~repro.store.persistence.RestoreReport`.
        """
        from ..store.persistence import restore_store, snapshot_store

        node = self._node(shard_id)
        self.fault.kill(node.address)
        snapshot_store(node.store)
        node.store.clear()
        report = restore_store(node.store)
        self.fault.revive(node.address)
        return report

    def power_fail_shard(self, shard_id: str):
        """Crash a shard with *state loss*: unlike :meth:`kill_shard`'s
        crash-pause and :meth:`restart_shard`'s snapshot round-trip, the
        shard's volatile memory — enclave dictionary, blob arena, quota
        and eviction state — is wiped in place, and the store rebuilds
        itself exclusively from its durable write-ahead log and sealed
        checkpoint before traffic reaches it again.  Requires shards
        configured with ``StoreConfig(durable=True)``.  Returns the
        :class:`~repro.durable.recovery.RecoveryReport`."""
        node = self._node(shard_id)
        self.fault.kill(node.address)
        node.store.power_fail()
        report = node.store.recover()
        self.fault.revive(node.address)
        return report

    def shard_alive(self, shard_id: str) -> bool:
        return not self.fault.is_dead(self._node(shard_id).address)

    def _node(self, shard_id: str) -> ShardNode:
        try:
            return self.shards[shard_id]
        except KeyError:
            raise SpeedError(f"unknown shard {shard_id!r}") from None

    # -- client wiring ---------------------------------------------------------
    def _attest(self, node: ShardNode, app_name: str, app_enclave: Enclave) -> RpcClient:
        """One application's channel to one shard.  A shard on the
        application's machine is reached at ``<app>@<machine>`` through
        local attestation (or, running a non-SGX store, a plain channel);
        a shard on its own machine at ``<app>-><shard>`` through remote
        attestation."""
        co_located = node.platform is app_enclave.platform
        return node.store.connect(
            f"{app_name}@{node.platform.name}" if co_located
            else f"{app_name}->{node.shard_id}",
            app_enclave=app_enclave if node.store.config.use_sgx else None,
            attestation_service=self.attestation,
        )

    def connect(self, app_name: str, app_enclave: Enclave) -> ClusterRouter:
        """Attest ``app_enclave`` to every shard and return the router its
        DedupRuntime uses as its store client."""
        clients = {
            shard_id: self._attest(node, app_name, app_enclave)
            for shard_id, node in sorted(self.shards.items())
        }
        router = ClusterRouter(
            self.ring, clients,
            replication_factor=self.config.replication_factor,
            tracer=self.tracer,
            clock=app_enclave.platform.clock,
        )
        self._routers.append((app_name, app_enclave, router))
        return router

    # -- introspection ---------------------------------------------------------
    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.shards))

    def total_entries(self) -> int:
        return sum(len(node.store) for node in self.shards.values())

    def owners_of(self, tag: bytes) -> list[str]:
        return self.ring.owners(tag, self.config.replication_factor)

    def holders_of(self, tag: bytes) -> list[str]:
        """Shards actually holding ``tag`` right now (tests/diagnostics)."""
        return [
            shard_id
            for shard_id, node in sorted(self.shards.items())
            if node.store.contains(tag)
        ]

    def snapshot(self) -> dict:
        """Per-shard store counters plus topology, one JSON-ready dict."""
        return {
            "shards": {
                shard_id: {
                    "alive": self.shard_alive(shard_id),
                    "entries": len(node.store),
                    "load_share": (
                        self.ring.load_share(shard_id)
                        if shard_id in self.ring else 0.0
                    ),
                    **node.store.snapshot(),
                }
                for shard_id, node in sorted(self.shards.items())
            },
            "replication_factor": self.config.replication_factor,
            "total_entries": self.total_entries(),
        }
