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
"""

from __future__ import annotations

from dataclasses import dataclass

from .resultstore import ResultStore
from ..errors import AttestationError, StoreError
from ..net.channel import ChannelEndpoint, establish_remote
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

    Both replication (:func:`replicate_popular`) and the cluster layer's
    tag-range migration ride on this channel.  Beyond the generic remote
    handshake, each side requires the peer to carry the *ResultStore
    signer* identity, so an arbitrary attested enclave cannot pose as a
    store and siphon replicated ciphertexts.
    """
    if local.enclave is None or remote.enclave is None:
        raise StoreError("sync requires SGX-mode stores on both sides")
    established = establish_remote(service, local.enclave, remote.enclave)
    if established.client_measurement.mrsigner != remote.enclave.measurement.mrsigner:
        raise AttestationError("sync peer is not a ResultStore enclave")
    if established.server_measurement.mrsigner != local.enclave.measurement.mrsigner:
        raise AttestationError("sync peer is not a ResultStore enclave")
    return established.client, established.server


def replicate_popular(
    service: AttestationService,
    source: ResultStore,
    master: ResultStore,
    min_hits: int = 1,
) -> SyncReport:
    """Push results with ≥ ``min_hits`` hits from ``source`` to ``master``.

    The channel handshake authenticates both enclaves; the entries travel
    AEAD-protected; the master drops tags it already holds, so repeated
    rounds and multiple sources never create duplicate ciphertexts.
    """
    local_ep, master_ep = attested_store_channel(service, source, master)

    with source.enclave.ecall("sync_collect"):
        entries = source.collect_entries(lambda entry: entry.hits >= min_hits)
        payload = local_ep.protect(_encode_entries(entries))

    source.platform.clock.charge_network(len(payload))

    transferred = 0
    duplicates = 0
    with master.enclave.ecall("sync_ingest", in_bytes=len(payload)):
        entries = _decode_entries(master_ep.unprotect(payload))
        for tag, challenge, wrapped_key, sealed in entries:
            if master.ingest_entry(tag, challenge, wrapped_key, sealed):
                transferred += 1
            else:
                duplicates += 1
    return SyncReport(offered=len(entries), transferred=transferred, duplicates=duplicates)


def _encode_entries(entries) -> bytes:
    from ..net.framing import FieldWriter

    w = FieldWriter()
    w.u32(len(entries))
    for tag, challenge, wrapped_key, sealed in entries:
        w.blob(tag).blob(challenge).blob(wrapped_key).blob(sealed)
    return w.getvalue()


def _decode_entries(data: bytes):
    from ..net.framing import FieldReader

    r = FieldReader(data)
    count = r.u32()
    entries = [(r.blob(), r.blob(), r.blob(), r.blob()) for _ in range(count)]
    r.expect_end()
    return entries
