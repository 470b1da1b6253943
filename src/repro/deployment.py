"""One-call wiring of a full SPEED deployment.

Experiments, examples, and tests all need the same setup: a simulated
SGX machine, a ResultStore reachable over the loopback network, and one
or more SGX-enabled applications whose enclaves link trusted libraries
and carry a DedupRuntime.  :class:`Deployment` assembles exactly that
topology (Fig. 1 of the paper); :class:`ClusterDeployment` assembles the
scaled-out variant — one application machine talking to an N-shard
:class:`~repro.cluster.StoreCluster` through per-app
:class:`~repro.cluster.ClusterRouter` instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import ClusterConfig, StoreCluster
from .core.deduplicable import Deduplicable
from .core.description import FunctionDescription, TrustedLibraryRegistry
from .core.runtime import DedupRuntime, RuntimeConfig
from .core.serialization import Parser
from .errors import SpeedError
from .net.transport import FaultInjector, Network
from .obs.tracer import NULL_TRACER
from .sgx.attestation import AttestationService
from .sgx.cost_model import CostParams
from .sgx.enclave import Enclave
from .sgx.platform import SgxPlatform
from .store.resultstore import ResultStore, StoreConfig


@dataclass
class Application:
    """One SGX-enabled application: its enclave plus its DedupRuntime."""

    name: str
    enclave: Enclave
    runtime: DedupRuntime

    def deduplicable(
        self,
        description: FunctionDescription,
        input_parser: Parser | None = None,
        result_parser: Parser | None = None,
        native_factor: float = 1.0,
    ) -> Deduplicable:
        """Create the Deduplicable version of a marked function."""
        return Deduplicable(
            self.runtime, description,
            input_parser=input_parser,
            result_parser=result_parser,
            native_factor=native_factor,
        )


class _Machine:
    """What both topologies share: the application machine (its
    simulated SGX platform and clock), the loopback network, and the
    applications launched on it.  A subclass adds the store side and
    says how a new application's enclave reaches it (:meth:`_connect`).
    """

    def __init__(
        self,
        seed: bytes,
        machine: str,
        cost_params: CostParams | None,
        epc_usable_bytes: int | None,
        fault_injector: FaultInjector | None,
        attestation_service: AttestationService | None,
        tracer,
    ):
        self.attestation = attestation_service or AttestationService()
        self.tracer = NULL_TRACER if tracer is None else tracer
        platform_kwargs = {}
        if epc_usable_bytes is not None:
            platform_kwargs["epc_usable_bytes"] = epc_usable_bytes
        self.platform = SgxPlatform(
            seed=seed,
            name=machine,
            params=cost_params,
            attestation_service=self.attestation,
            **platform_kwargs,
        )
        self.network = Network(fault_injector=fault_injector)
        self._apps: dict[str, Application] = {}

    @property
    def clock(self):
        """The application machine's clock (cluster shards keep their own)."""
        return self.platform.clock

    def create_application(
        self,
        name: str,
        libraries: TrustedLibraryRegistry,
        runtime_config: RuntimeConfig | None = None,
    ) -> Application:
        """Launch an application enclave and connect it to the store
        (or, on a cluster, to the whole shard ring)."""
        if name in self._apps:
            raise SpeedError(f"application {name!r} already exists")
        code_identity = b"speed/app/" + name.encode() + b"/" + libraries.code_identity()
        enclave = self.platform.create_enclave(name, code_identity)
        client = self._connect(name, enclave)
        config = runtime_config or RuntimeConfig(app_id=name)
        runtime = DedupRuntime(
            enclave, client, libraries, config=config, tracer=self.tracer
        )
        app = Application(name=name, enclave=enclave, runtime=runtime)
        self._apps[name] = app
        return app

    def applications(self) -> list[Application]:
        return list(self._apps.values())

    def flush_all_puts(self) -> int:
        """Drain every application's asynchronous PUT queue."""
        return sum(app.runtime.flush_puts() for app in self._apps.values())


class Deployment(_Machine):
    """A simulated machine running one ResultStore and N applications."""

    def __init__(
        self,
        seed: bytes = b"speed-deployment",
        machine: str = "machine-0",
        store_config: StoreConfig | None = None,
        cost_params: CostParams | None = None,
        epc_usable_bytes: int | None = None,
        fault_injector: FaultInjector | None = None,
        attestation_service: AttestationService | None = None,
        tracer=NULL_TRACER,
    ):
        super().__init__(seed, machine, cost_params, epc_usable_bytes,
                         fault_injector, attestation_service, tracer)
        self.store = ResultStore(
            self.platform, self.network, address=f"resultstore@{machine}",
            config=store_config, seed=seed + b"/store",
            tracer=self.tracer,
        )

    def _connect(self, name: str, enclave: Enclave):
        return self.store.connect(
            client_address=f"{name}@{self.platform.name}",
            app_enclave=enclave if self.store.config.use_sgx else None,
        )


class ClusterDeployment(_Machine):
    """One application machine in front of an N-shard ResultStore cluster.

    The applications share a platform (they are co-located, as in the
    paper's Fig. 1), while each shard of the cluster runs on its own
    machine; app-to-shard channels therefore use remote attestation via
    the shared :class:`~repro.sgx.attestation.AttestationService`.
    """

    def __init__(
        self,
        seed: bytes = b"speed-cluster-deployment",
        machine: str = "app-machine",
        n_shards: int = 4,
        replication_factor: int = 2,
        vnodes: int = 32,
        store_config: StoreConfig | None = None,
        cost_params: CostParams | None = None,
        epc_usable_bytes: int | None = None,
        shard_epc_usable_bytes: int | None = None,
        fault_injector: FaultInjector | None = None,
        attestation_service: AttestationService | None = None,
        tracer=NULL_TRACER,
    ):
        super().__init__(seed, machine, cost_params, epc_usable_bytes,
                         fault_injector, attestation_service, tracer)
        self.cluster = StoreCluster(
            self.network,
            self.attestation,
            config=ClusterConfig(
                n_shards=n_shards,
                replication_factor=replication_factor,
                vnodes=vnodes,
                store_config=store_config or StoreConfig(),
                epc_usable_bytes=shard_epc_usable_bytes,
            ),
            seed=seed + b"/cluster",
            cost_params=cost_params,
            tracer=self.tracer,
        )

    def _connect(self, name: str, enclave: Enclave):
        return self.cluster.connect(name, enclave)
