"""Exception hierarchy for the SPEED reproduction.

Every error raised by this library derives from :class:`SpeedError`, so a
caller can catch one type at an application boundary.  Subsystems define
narrower types here (rather than locally) to avoid import cycles between
the crypto, SGX-simulator, network, store, and runtime packages.

Every class carries a stable, machine-readable ``code`` (snake_case,
unique across the hierarchy).  Wire-level failure annotations — the
``reason`` field of :class:`~repro.net.messages.GetResponse` /
:class:`~repro.net.messages.PutResponse` — carry these codes instead of
free-form prose, so a client can switch on the failure kind without
string matching.
"""

from __future__ import annotations


class SpeedError(Exception):
    """Base class for all errors raised by this library."""

    #: Stable machine-readable identifier for this failure kind.
    code = "speed_error"


class CryptoError(SpeedError):
    """A cryptographic operation failed (bad key/IV size, internal error)."""

    code = "crypto_error"


class IntegrityError(CryptoError):
    """An authenticated-decryption or MAC check failed.

    Corresponds to the ``⊥`` symbol in Fig. 3 of the paper: the attempted
    decryption did not pass the authenticity check.
    """

    code = "integrity_error"


class EnclaveError(SpeedError):
    """Violation of the simulated SGX enclave semantics."""

    code = "enclave_error"


class EnclaveMemoryError(EnclaveError):
    """The enclave ran out of (simulated) EPC and paging is disabled."""

    code = "enclave_memory"


class AttestationError(EnclaveError):
    """Local or remote attestation failed (bad measurement or MAC)."""

    code = "attestation_failed"


class SealingError(EnclaveError):
    """Unsealing failed: wrong enclave identity or corrupted blob."""

    code = "sealing_failed"


class TransportError(SpeedError):
    """The simulated transport could not deliver a message."""

    code = "transport_error"


class NoLiveOwnerError(TransportError):
    """No owner shard of a tag was reachable (cluster routing).

    The fail-safe action is the same as a miss: recompute (Algorithm 1).
    The distinct code lets callers separate "recompute because unknown"
    from "recompute because the owning shards were unreachable".
    """

    code = "no_live_owner"


class RetryExhaustedError(TransportError):
    """A retried RPC ran out of attempts without a usable response.

    Subclasses :class:`TransportError` so callers that treat a shard
    timeout as "this shard did not serve the request" (the cluster
    router's failover logic) need no special case for retried clients.
    """

    code = "retry_exhausted"


class ChannelError(SpeedError):
    """Secure-channel handshake or record protection failed."""

    code = "channel_error"


class ProtocolError(SpeedError):
    """A malformed or unexpected wire message was received."""

    code = "protocol_error"


class SerializationError(SpeedError):
    """A value could not be serialized or deserialized by a parser."""

    code = "serialization_error"


class StoreError(SpeedError):
    """The encrypted ResultStore rejected or could not serve a request."""

    code = "store_error"


class QuotaExceededError(StoreError):
    """An application exceeded its PUT quota (DoS mitigation, paper III-D)."""

    code = "quota_exceeded"


class RollbackError(StoreError):
    """A whole-state rollback of a durable store was detected.

    The recovered checkpoint carries an older monotonic-counter value
    than the platform's hardware counter, meaning the host presented a
    stale (but individually authentic) sealed state.  By default the
    store counts the event (``durable.rollback_detected``) and accepts
    the stale state; with ``StoreConfig(strict_rollback=True)`` recovery
    raises this error instead.
    """

    code = "state_rollback"


class MigrationError(SpeedError):
    """A tag-range migration between shards could not proceed."""

    code = "migration_error"


class MigrationInProgressError(MigrationError):
    """A topology change was requested while another is still streaming.

    Only one resharding window may be open at a time: the dual-ownership
    overlay in :class:`~repro.cluster.ring.ShardRing` tracks exactly one
    pending ring.
    """

    code = "migration_in_progress"


class MigrationStateError(MigrationError):
    """A migration step was invoked out of order (no open window,
    committing an unknown range, or finishing with ranges pending)."""

    code = "migration_state"


class MigrationIngestError(MigrationError):
    """A destination shard refused part of a migrated batch (for
    example: the target's quota filled mid-stream).  The migrator
    aborts the transition and restores the previous ownership map."""

    code = "migration_ingest"


class DedupError(SpeedError):
    """The DedupRuntime could not complete a deduplicated call."""

    code = "dedup_error"
