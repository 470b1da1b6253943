"""SPEED: Accelerating Enclave Applications via Secure Deduplication.

A faithful Python reproduction of the ICDCS 2019 system by Cui, Duan,
Qin, Wang, and Zhou, built on a simulated SGX substrate (see DESIGN.md).

Quickstart — :func:`connect` is the single entry point; it wires the
whole topology (simulated SGX machines, the ResultStore shards, attested
channels) plus the session-wide tracer and metrics registry.  The
paper's Fig. 1 is the default: one shard on the app machine, reached
through the same router as ``shards=4``'s shards on machines of their
own::

    import repro

    session = repro.connect()          # or repro.connect(shards=4)

    @session.mark(version="1.0")
    def deflate(data: bytes) -> bytes:
        ...

    deflate(payload)                   # first call computes + stores
    deflate(payload)                   # second call is a secure cache hit

    print(session.trace_table())       # the call's connected span tree
    print(session.snapshot())          # every component counter, one dict

Ported trusted libraries register the same way as before, through
:class:`TrustedLibrary` / :class:`FunctionDescription`, and execute via
``session.execute(description, *args)`` or ``session.deduplicable()``.

The package exports what that story needs and nothing more: :func:`connect`
and its :class:`Session`, the registry and configs an application is
given (:class:`TrustedLibraryRegistry`, :class:`RuntimeConfig`,
:class:`StoreConfig`), the topology API (:class:`TopologyPlan`,
:class:`TopologyReport`) and the error classes.  Everything
:func:`connect` is built on — the ``Deployment`` wiring,
``DedupRuntime``, the store, the cluster, the engine, the tracer — is
imported from its subpackage (``repro.deployment``, ``repro.core``, ``repro.store``,
``repro.cluster``, ``repro.engine``, ``repro.obs``, ...).
"""

from .cluster.ring import TopologyPlan
from .core.description import (
    FunctionDescription,
    TrustedLibrary,
    TrustedLibraryRegistry,
)
from .core.runtime import RuntimeConfig
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
)
from .session import Session, TopologyReport, connect
from .store.resultstore import StoreConfig

__version__ = "1.1.0"

__all__ = [
    "ChannelError",
    "DedupError",
    "FunctionDescription",
    "MigrationError",
    "MigrationInProgressError",
    "MigrationIngestError",
    "MigrationStateError",
    "NoLiveOwnerError",
    "QuotaExceededError",
    "RollbackError",
    "RuntimeConfig",
    "Session",
    "SpeedError",
    "StoreConfig",
    "StoreError",
    "TopologyPlan",
    "TopologyReport",
    "TransportError",
    "TrustedLibrary",
    "TrustedLibraryRegistry",
    "connect",
]
