"""Attested secure channel between DedupRuntime and ResultStore.

Algorithm 1/2 of the paper send the tag "to the encrypted ResultStore via
a secure channel".  On real SGX this is built with local attestation
(``sgx_dh_*``): an ephemeral Diffie-Hellman exchange whose public values
are bound into attestation reports, followed by AEAD-protected records.
This module reproduces that construction:

* :func:`establish` — mutual attested handshake between two enclaves on
  one platform.  Each side binds the hash of its DH public value into the
  ``report_data`` of a local-attestation report targeted at the peer, so
  a man-in-the-middle cannot splice its own key into the exchange.
* :class:`ChannelEndpoint` — sequenced AES-GCM records with replay and
  reordering detection.  A direction's IVs are its ``counter_prefix(label)``
  then ``seq`` in 8 bytes, ``seq`` strictly increasing, so no (key, IV)
  repeats; told so once, its ciphers make keystream a window of records
  ahead (:mod:`repro.crypto.ctr`: wall clock only; no record, tag check or
  ``SimClock`` charge moves).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.ctr import counter_prefix
from ..crypto.dh import derive_session_keys, generate_keypair
from ..crypto.drbg import HmacDrbg
from ..crypto.gcm import AesGcm
from ..crypto.hashes import sha256
from ..errors import ChannelError, IntegrityError
from ..obs.tracer import NULL_TRACER
from ..sgx.cost_model import SimClock
from ..sgx.enclave import Enclave
from ..sgx.measurement import Measurement

# One 2048-bit modular exponentiation on the paper's CPU (~0.2 ms).
_DH_EXP_CYCLES = 560_000


def _pub_bytes(public: int) -> bytes:
    return public.to_bytes(256, "big")


class ChannelEndpoint:
    """One direction pair of an established channel."""

    def __init__(self, clock: SimClock, send_key: bytes, recv_key: bytes, label: int):
        self._clock = clock
        self._send = AesGcm(send_key, _counter_label=label)
        self._recv = AesGcm(recv_key, _counter_label=label ^ 1)
        # Each direction's IVs: its counter prefix, then the header's sequence number.
        self._send_prefix, self._recv_prefix = counter_prefix(label), counter_prefix(label ^ 1)
        self._send_seq = 0
        self._recv_seq = 0
        # Observability: a Session points this at its shared tracer so
        # every seal/open shows up as a channel.encrypt/decrypt span.
        self.tracer = NULL_TRACER
        self.trace_clock = clock

    @property
    def records_protected(self) -> int:
        """Number of records sealed on this endpoint so far."""
        return self._send_seq

    def protect(self, payload: bytes) -> bytes:
        """Seal one record; output is ``seq(8) || tag(16) || ciphertext``."""
        with self.tracer.span("channel.encrypt", clock=self.trace_clock, bytes=len(payload)):
            seq = self._send_seq
            if seq >> 64:  # the header and the IV carry 64 bits of it
                raise ChannelError("sequence space exhausted")
            self._send_seq += 1
            self._clock.charge_aead_encrypt(len(payload))
            header = seq.to_bytes(8, "big")
            ct, tag = self._send.encrypt(
                self._send_prefix + header, payload, aad=b"speed/record" + header,
            )
            return header + tag + ct

    def unprotect(self, record: bytes) -> bytes:
        """Open one record, enforcing monotonic sequencing.

        Sequence numbers must strictly increase: replays and stale
        reordered records are rejected, while gaps are tolerated (the
        underlying transport is reliable in-order delivery, but a peer
        may legitimately skip numbers it spent on messages that were
        lost before reaching us).
        """
        with self.tracer.span("channel.decrypt", clock=self.trace_clock, bytes=len(record)):
            if len(record) < 24:
                raise ChannelError("record too short")
            header = record[:8]
            seq = int.from_bytes(header, "big")
            if seq < self._recv_seq:
                raise ChannelError(
                    f"record replayed or stale: got {seq}, want >= {self._recv_seq}"
                )
            tag, ct = record[8:24], record[24:]
            self._clock.charge_aead_decrypt(len(ct))
            try:
                payload = self._recv.decrypt(
                    self._recv_prefix + header, ct, tag, aad=b"speed/record" + header,
                )
            except IntegrityError as exc:
                raise ChannelError("record authentication failed") from exc
            self._recv_seq = seq + 1
            return payload


class NullChannelEndpoint(ChannelEndpoint):
    """Pass-through 'channel' with no protection and no cost.

    Used only by the ``use_sgx=False`` ResultStore variant of the Fig. 6
    comparison, where the paper runs the same store operations entirely
    outside enclaves (no protected channel exists in that regime).
    """

    def __init__(self):  # noqa: D107 - intentionally skips parent init
        self._send_seq = 0
        self._recv_seq = 0
        self.tracer = NULL_TRACER
        self.trace_clock = None

    def protect(self, payload: bytes) -> bytes:
        seq = self._send_seq
        self._send_seq += 1
        return seq.to_bytes(8, "big") + payload

    def unprotect(self, record: bytes) -> bytes:
        if len(record) < 8:
            raise ChannelError("record too short")
        seq = int.from_bytes(record[:8], "big")
        if seq < self._recv_seq:
            raise ChannelError(f"record replayed or stale: got {seq}, want >= {self._recv_seq}")
        self._recv_seq = seq + 1
        return record[8:]


@dataclass(frozen=True)
class EstablishedChannel:
    """Both endpoints plus the mutually attested peer identities."""

    client: ChannelEndpoint
    server: ChannelEndpoint
    client_measurement: Measurement
    server_measurement: Measurement


def establish_remote(
    service, client_enclave: Enclave, server_enclave: Enclave
) -> EstablishedChannel:
    """Run the attested DH handshake between enclaves on *different*
    machines (remote attestation via a shared quoting service).

    The construction mirrors :func:`establish` but binds each DH public
    value into a platform-signed quote instead of a local-attestation
    report, so neither side needs to share hardware with its peer.  Each
    returned endpoint charges its *own* platform's clock — the two sides
    live on different simulated machines.
    """
    c_clock = client_enclave.platform.clock
    s_clock = server_enclave.platform.clock

    with client_enclave.ecall("rdh_init", out_bytes=256 + 96):
        c_drbg = HmacDrbg(client_enclave.read_rand(32), b"channel/remote-client")
        c_kp = generate_keypair(c_drbg)
        c_clock.charge_cycles(_DH_EXP_CYCLES, "crypto")
        c_quote = client_enclave.create_quote(sha256(_pub_bytes(c_kp.public)))

    with server_enclave.ecall("rdh_respond", in_bytes=256 + 96, out_bytes=256 + 96):
        client_meas = service.verify_quote(c_quote)
        if c_quote.report_data[:32] != sha256(_pub_bytes(c_kp.public)):
            raise ChannelError("client DH public value not bound to its quote")
        s_drbg = HmacDrbg(server_enclave.read_rand(32), b"channel/remote-server")
        s_kp = generate_keypair(s_drbg)
        s_clock.charge_cycles(_DH_EXP_CYCLES, "crypto")
        s_quote = server_enclave.create_quote(sha256(_pub_bytes(s_kp.public)))
        transcript = _pub_bytes(c_kp.public) + _pub_bytes(s_kp.public)
        s_clock.charge_cycles(_DH_EXP_CYCLES, "crypto")
        s_c2s, s_s2c = derive_session_keys(s_kp, c_kp.public, transcript)

    with client_enclave.ecall("rdh_finish", in_bytes=256 + 96):
        server_meas = service.verify_quote(s_quote)
        if s_quote.report_data[:32] != sha256(_pub_bytes(s_kp.public)):
            raise ChannelError("server DH public value not bound to its quote")
        transcript = _pub_bytes(c_kp.public) + _pub_bytes(s_kp.public)
        c_clock.charge_cycles(_DH_EXP_CYCLES, "crypto")
        c_c2s, c_s2c = derive_session_keys(c_kp, s_kp.public, transcript)

    if (c_c2s, c_s2c) != (s_c2s, s_s2c):
        raise ChannelError("handshake key derivation mismatch")

    return EstablishedChannel(
        client=ChannelEndpoint(c_clock, send_key=c_c2s, recv_key=c_s2c, label=0),
        server=ChannelEndpoint(s_clock, send_key=s_s2c, recv_key=s_c2s, label=1),
        client_measurement=client_meas,
        server_measurement=server_meas,
    )


def establish(client_enclave: Enclave, server_enclave: Enclave) -> EstablishedChannel:
    """Run the attested DH handshake between two co-located enclaves.

    Raises :class:`~repro.errors.AttestationError` if either report fails
    verification and :class:`ChannelError` if a public value does not
    match the one bound into its report.
    """
    if client_enclave.platform is not server_enclave.platform:
        raise ChannelError(
            "local attestation requires both enclaves on one platform; "
            "use remote attestation (sgx.attestation.AttestationService) across machines"
        )
    clock = client_enclave.platform.clock

    # Client: ephemeral key + report binding its public value.
    with client_enclave.ecall("dh_init", out_bytes=256 + 96):
        c_drbg = HmacDrbg(client_enclave.read_rand(32), b"channel/client")
        c_kp = generate_keypair(c_drbg)
        clock.charge_cycles(_DH_EXP_CYCLES, "crypto")
        c_report = client_enclave.create_report(
            server_enclave.measurement, sha256(_pub_bytes(c_kp.public))
        )

    # Server: verify, bind its own value, derive keys.
    with server_enclave.ecall("dh_respond", in_bytes=256 + 96, out_bytes=256 + 96):
        client_meas = server_enclave.verify_peer_report(c_report)
        if c_report.report_data[:32] != sha256(_pub_bytes(c_kp.public)):
            raise ChannelError("client DH public value not bound to its report")
        s_drbg = HmacDrbg(server_enclave.read_rand(32), b"channel/server")
        s_kp = generate_keypair(s_drbg)
        clock.charge_cycles(_DH_EXP_CYCLES, "crypto")
        s_report = server_enclave.create_report(
            client_enclave.measurement, sha256(_pub_bytes(s_kp.public))
        )
        transcript = _pub_bytes(c_kp.public) + _pub_bytes(s_kp.public)
        clock.charge_cycles(_DH_EXP_CYCLES, "crypto")
        s_c2s, s_s2c = derive_session_keys(s_kp, c_kp.public, transcript)

    # Client: verify the server's report and derive the same keys.
    with client_enclave.ecall("dh_finish", in_bytes=256 + 96):
        server_meas = client_enclave.verify_peer_report(s_report)
        if s_report.report_data[:32] != sha256(_pub_bytes(s_kp.public)):
            raise ChannelError("server DH public value not bound to its report")
        transcript = _pub_bytes(c_kp.public) + _pub_bytes(s_kp.public)
        clock.charge_cycles(_DH_EXP_CYCLES, "crypto")
        c_c2s, c_s2c = derive_session_keys(c_kp, s_kp.public, transcript)

    if (c_c2s, c_s2c) != (s_c2s, s_s2c):
        raise ChannelError("handshake key derivation mismatch")

    return EstablishedChannel(
        client=ChannelEndpoint(clock, send_key=c_c2s, recv_key=c_s2c, label=0),
        server=ChannelEndpoint(clock, send_key=s_s2c, recv_key=s_c2s, label=1),
        client_measurement=client_meas,
        server_measurement=server_meas,
    )
