"""Master-ResultStore replication across machines (paper §IV-B remark).

"We can also deploy a master ResultStore on a dedicated server, which
periodically synchronizes the popular (i.e., frequently appeared) results
from different machines. ... this will not cause redundancy at the master
ResultStore [because] the tags of underlying computations are
deterministic and only one version of result ciphertext needs to be
stored."

The replication link crosses machines, so it authenticates with *remote*
attestation: each store enclave produces a quote over its sync DH public
value; the shared :class:`~repro.sgx.attestation.AttestationService`
verifies both sides before session keys are derived.

This module is the one way ``(tag, r, [k], [res])`` tuples leave a store:
:func:`transfer_entries` ships what ``ResultStore.collect_entries``
exported to another attested ResultStore enclave.  :func:`replicate_popular`
and the cluster's migration and anti-entropy (:mod:`repro.cluster.migration`)
all ship through it; no message an application can send reaches the collector.
"""

from __future__ import annotations

from dataclasses import dataclass

from .resultstore import ResultStore
from ..errors import AttestationError, MigrationIngestError, StoreError
from ..net.channel import ChannelEndpoint, establish_remote
from ..net.framing import Layout, Repeated, pack, unpack
from ..sgx.attestation import AttestationService


@dataclass(frozen=True)
class SyncReport:
    """Outcome of one replication round."""

    offered: int
    transferred: int
    duplicates: int


def attested_store_channel(
    service: AttestationService,
    local: ResultStore,
    remote: ResultStore,
) -> tuple[ChannelEndpoint, ChannelEndpoint]:
    """Mutually attested DH between two store enclaves on different
    machines; returns (local endpoint, remote endpoint).

    Beyond the generic remote handshake, each side requires the peer to
    carry the *ResultStore signer* identity, so an arbitrary attested
    enclave cannot pose as a store and siphon replicated ciphertexts.
    """
    if local.enclave is None or remote.enclave is None:
        raise StoreError("sync requires SGX-mode stores on both sides")
    established = establish_remote(service, local.enclave, remote.enclave)
    if established.client_measurement.mrsigner != remote.enclave.measurement.mrsigner:
        raise AttestationError("sync peer is not a ResultStore enclave")
    if established.server_measurement.mrsigner != local.enclave.measurement.mrsigner:
        raise AttestationError("sync peer is not a ResultStore enclave")
    return established.client, established.server


def transfer_entries(
    service: AttestationService,
    source: ResultStore,
    dest: ResultStore,
    entries,
    enforce_capacity: bool = False,
) -> tuple[int, int, int]:
    """Ship ``entries`` from ``source`` to ``dest`` as one attested,
    AEAD-protected payload; returns (ingested, duplicates, payload
    bytes).  ``entries`` is a list of collected ``(tag, r, [k], [res])``
    tuples, or a predicate on the entry for ``source`` to collect by
    under the sealing ECALL.  ``dest`` drops tags it already holds, so
    repeated rounds and multiple sources never duplicate a ciphertext.

    With ``enforce_capacity`` the destination refuses (raises
    :class:`~repro.errors.MigrationIngestError`) rather than evicting
    foreground entries to make room — a full target shard must fail the
    migration, not silently shed other tenants' results.
    """
    src_ep, dst_ep = attested_store_channel(service, source, dest)
    with source.ecall("migrate_seal"):
        if callable(entries):
            entries = source.collect_entries(entries)
        payload = src_ep.protect(_encode_entries(entries))
    source.platform.clock.charge_network(len(payload))
    moved = 0
    with dest.ecall("migrate_ingest", in_bytes=len(payload)):
        for tag, challenge, wrapped_key, sealed in _decode_entries(dst_ep.unprotect(payload)):
            if enforce_capacity and not dest.contains(tag) and not dest.can_accept(len(sealed)):
                raise MigrationIngestError(
                    f"target shard at {dest.address!r} is full; "
                    f"refusing migrated batch"
                )
            moved += dest.ingest_entry(tag, challenge, wrapped_key, sealed)
    return moved, len(entries) - moved, len(payload)


def replicate_popular(
    service: AttestationService,
    source: ResultStore,
    master: ResultStore,
    min_hits: int = 1,
) -> SyncReport:
    """Push results with ≥ ``min_hits`` hits from ``source`` to ``master``."""
    transferred, duplicates, _ = transfer_entries(
        service, source, master, lambda entry: entry.hits >= min_hits
    )
    return SyncReport(transferred + duplicates, transferred, duplicates)


#: The shipped payload: ``(tag, r, [k], [res])`` tuples — the one place
#: the hand-off tuple's layout is written down.
HANDOFF_ENTRY = Layout(
    ("tag", "blob"), ("challenge", "blob"), ("wrapped_key", "blob"),
    ("sealed_result", "blob"),
)
HANDOFF = Layout(("entries", Repeated(HANDOFF_ENTRY)))
_ENTRY_NAMES = tuple(name for name, _ in HANDOFF_ENTRY.fields)


def _encode_entries(entries) -> bytes:
    return pack(HANDOFF, {"entries": [dict(zip(_ENTRY_NAMES, e)) for e in entries]})


def _decode_entries(data: bytes) -> list[tuple[bytes, bytes, bytes, bytes]]:
    return [tuple(e.values()) for e in unpack(HANDOFF, data)["entries"]]
