"""The wiring under :func:`repro.connect`.

Every deployment is the same setup: one simulated SGX application
machine, the loopback network, a :class:`~repro.cluster.StoreCluster`
of ResultStore shards, and one or more SGX-enabled applications whose
enclaves link trusted libraries and carry a DedupRuntime that reaches
the shards through its own :class:`~repro.cluster.ClusterRouter`.  The
paper's Fig. 1 is one shard on the app machine (``n_shards=0``, the
default); ``n_shards >= 1`` places that many shards on machines of
their own.  Examples, experiments and benchmarks build one through
``repro.connect()``; only the tests of this layer construct
:class:`Deployment` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import ClusterConfig, StoreCluster
from .cluster.ring import REPLICATION_FACTOR, VNODES
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
from .store.resultstore import HANDOFF_APP_ID, StoreConfig


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
    ) -> Deduplicable:
        """Create the Deduplicable version of a marked function."""
        return Deduplicable(
            self.runtime, description,
            input_parser=input_parser,
            result_parser=result_parser,
        )


class Deployment:
    """One application machine, its applications, and the store shards
    they share.

    ``n_shards=0`` (the default) places one shard on the application
    machine itself — the paper's Fig. 1, reached through local
    attestation; ``n_shards >= 1`` gives each of that many shards a
    machine of its own, reached through remote attestation via the
    shared :class:`~repro.sgx.attestation.AttestationService`, with
    ``replication_factor`` copies of every entry.
    """

    def __init__(
        self,
        seed: bytes = b"speed-deployment",
        machine: str | None = None,
        n_shards: int = 0,
        replication_factor: int = REPLICATION_FACTOR,
        vnodes: int = VNODES,
        store_config: StoreConfig | None = None,
        cost_params: CostParams | None = None,
        epc_usable_bytes: int | None = None,
        fault_injector: FaultInjector | None = None,
        attestation_service: AttestationService | None = None,
        tracer=NULL_TRACER,
    ):
        self.attestation = attestation_service or AttestationService()
        self.tracer = NULL_TRACER if tracer is None else tracer
        platform_kwargs = {}
        if epc_usable_bytes is not None:
            platform_kwargs["epc_usable_bytes"] = epc_usable_bytes
        # The app machine's default name seeds its DRBG, so it keeps the
        # one each placement always had: pinned key and nonce streams
        # derive from it.
        self.platform = SgxPlatform(
            seed=seed,
            name=machine or ("app-machine" if n_shards else "machine-0"),
            params=cost_params,
            attestation_service=self.attestation,
            **platform_kwargs,
        )
        self.network = Network(fault_injector=fault_injector)
        self.cluster = StoreCluster(
            self.network,
            self.attestation,
            config=ClusterConfig(
                n_shards=n_shards or 1,
                replication_factor=replication_factor,
                vnodes=vnodes,
                store_config=store_config or StoreConfig(),
            ),
            seed=seed + b"/cluster",
            cost_params=cost_params,
            tracer=self.tracer,
            host=None if n_shards else self.platform,
        )
        self._apps: dict[str, Application] = {}

    @property
    def clock(self):
        """The application machine's clock (shards elsewhere keep their own)."""
        return self.platform.clock

    @property
    def store(self):
        """The ResultStore of a one-shard deployment."""
        shards = self.cluster.shards
        if len(shards) != 1:
            raise SpeedError(
                f"this deployment runs {len(shards)} shards; use .cluster"
            )
        (node,) = shards.values()
        return node.store

    def create_application(
        self,
        name: str,
        libraries: TrustedLibraryRegistry,
        runtime_config: RuntimeConfig | None = None,
    ) -> Application:
        """Launch an application enclave and connect it to every shard.
        Its ``app_id`` (by default its name) may not be the hand-off id,
        under which the store refuses every PUT."""
        if name in self._apps:
            raise SpeedError(f"application {name!r} already exists")
        config = runtime_config or RuntimeConfig(app_id=name)
        if config.app_id == HANDOFF_APP_ID:
            raise SpeedError(
                f"app id {HANDOFF_APP_ID!r} is reserved for hand-off entries; "
                "pick another app_name or RuntimeConfig.app_id"
            )
        code_identity = b"speed/app/" + name.encode() + b"/" + libraries.code_identity()
        enclave = self.platform.create_enclave(name, code_identity)
        client = self.cluster.connect(name, enclave)
        runtime = DedupRuntime(
            enclave, client, libraries, config=config, tracer=self.tracer
        )
        app = Application(name=name, enclave=enclave, runtime=runtime)
        self._apps[name] = app
        return app
