"""SPEED: Accelerating Enclave Applications via Secure Deduplication.

A faithful Python reproduction of the ICDCS 2019 system by Cui, Duan,
Qin, Wang, and Zhou, built on a simulated SGX substrate (see DESIGN.md).

Quickstart — :func:`connect` is the single entry point; it wires the
whole topology (simulated SGX machines, ResultStore or shard cluster,
attested channels) plus the session-wide tracer and metrics registry::

    import repro

    session = repro.connect()          # or repro.connect(shards=4)

    @session.mark(version="1.0")
    def deflate(data: bytes) -> bytes:
        ...

    deflate(payload)                   # first call computes + stores
    deflate(payload)                   # second call is a secure cache hit

    print(session.trace_table())       # the call's connected span tree
    print(session.to_json(indent=2))   # every component counter, one dict

Ported trusted libraries register the same way as before, through
:class:`TrustedLibrary` / :class:`FunctionDescription`, and execute via
``session.execute(description, *args)`` or ``session.deduplicable()``.

:func:`connect` is built on the lower-level constructors
(:class:`Deployment`, :class:`ClusterDeployment`, :class:`DedupRuntime`,
...), which stay exported for code that assembles a topology by hand
(the bench harness, tests); a session adds the tracer and the metrics
registry on top of the same wiring.
"""

from . import obs
from .cluster import (
    ClusterConfig,
    ClusterRouter,
    ShardRing,
    StoreCluster,
    TopologyPlan,
)
from .core import (
    CrossAppScheme,
    Deduplicable,
    DedupResult,
    DedupRuntime,
    FunctionDescription,
    PlaintextScheme,
    RuntimeConfig,
    SingleKeyScheme,
    TrustedLibrary,
    TrustedLibraryRegistry,
)
from .deployment import Application, ClusterDeployment, Deployment
from .errors import (
    ChannelError,
    DedupError,
    MigrationError,
    MigrationInProgressError,
    MigrationIngestError,
    MigrationStateError,
    NoLiveOwnerError,
    QuotaExceededError,
    RollbackError,
    SpeedError,
    StoreError,
    TransportError,
    VerificationError,
    error_codes,
    error_for_code,
)
from .engine import EngineConfig, PipelineEngine
from .obs import MetricsRegistry, Span, Tracer
from .report import ReportMixin
from .session import Session, TopologyReport, connect
from .sgx import CostParams, SgxPlatform
from .store import QuotaPolicy, ResultStore, StoreConfig

__version__ = "1.1.0"

__all__ = [
    "Application",
    "ChannelError",
    "ClusterConfig",
    "ClusterDeployment",
    "ClusterRouter",
    "CostParams",
    "CrossAppScheme",
    "Deduplicable",
    "DedupError",
    "DedupResult",
    "DedupRuntime",
    "Deployment",
    "EngineConfig",
    "FunctionDescription",
    "MetricsRegistry",
    "MigrationError",
    "MigrationInProgressError",
    "MigrationIngestError",
    "MigrationStateError",
    "NoLiveOwnerError",
    "PipelineEngine",
    "PlaintextScheme",
    "QuotaExceededError",
    "QuotaPolicy",
    "ReportMixin",
    "ResultStore",
    "RollbackError",
    "RuntimeConfig",
    "Session",
    "SgxPlatform",
    "ShardRing",
    "SingleKeyScheme",
    "Span",
    "SpeedError",
    "StoreCluster",
    "StoreConfig",
    "StoreError",
    "TopologyPlan",
    "TopologyReport",
    "Tracer",
    "TransportError",
    "TrustedLibrary",
    "TrustedLibraryRegistry",
    "VerificationError",
    "__version__",
    "connect",
    "error_codes",
    "error_for_code",
    "obs",
]
