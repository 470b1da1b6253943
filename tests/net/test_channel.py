"""Secure channel: attested handshake, records, replay, MITM."""

import pytest

from repro.errors import ChannelError
from repro.net.channel import NullChannelEndpoint, establish
from repro.sgx.platform import SgxPlatform


@pytest.fixture
def platform():
    return SgxPlatform(seed=b"channel-tests")


@pytest.fixture
def enclaves(platform):
    client = platform.create_enclave("client", b"client-code")
    server = platform.create_enclave("server", b"server-code")
    return client, server


@pytest.fixture
def channel(enclaves):
    return establish(*enclaves)


class TestHandshake:
    def test_establish_reports_peer_identities(self, enclaves, channel):
        client, server = enclaves
        assert channel.client_measurement == client.measurement
        assert channel.server_measurement == server.measurement

    def test_cross_platform_rejected(self, platform):
        other = SgxPlatform(seed=b"other-machine")
        a = platform.create_enclave("a", b"x")
        b = other.create_enclave("b", b"y")
        with pytest.raises(ChannelError):
            establish(a, b)

    def test_handshake_is_keyed_per_session(self, enclaves):
        ch1 = establish(*enclaves)
        ch2 = establish(*enclaves)
        r1 = ch1.client.protect(b"hello")
        r2 = ch2.client.protect(b"hello")
        assert r1 != r2  # fresh ephemeral keys every handshake


class TestRecords:
    def test_roundtrip_both_directions(self, channel):
        record = channel.client.protect(b"request")
        assert channel.server.unprotect(record) == b"request"
        reply = channel.server.protect(b"response")
        assert channel.client.unprotect(reply) == b"response"

    def test_sequencing(self, channel):
        for i in range(5):
            record = channel.client.protect(f"msg{i}".encode())
            assert channel.server.unprotect(record) == f"msg{i}".encode()

    def test_replay_rejected(self, channel):
        record = channel.client.protect(b"once")
        channel.server.unprotect(record)
        with pytest.raises(ChannelError):
            channel.server.unprotect(record)

    def test_stale_reordered_record_rejected(self, channel):
        first = channel.client.protect(b"one")
        second = channel.client.protect(b"two")
        # Monotonic sequencing: a newer record may arrive first (the gap
        # is tolerated — its predecessor may have been lost)...
        assert channel.server.unprotect(second) == b"two"
        # ...but the stale record can never be accepted afterwards.
        with pytest.raises(ChannelError):
            channel.server.unprotect(first)

    def test_tampered_record_rejected(self, channel):
        record = bytearray(channel.client.protect(b"payload"))
        record[-1] ^= 0xFF
        with pytest.raises(ChannelError):
            channel.server.unprotect(bytes(record))

    def test_short_record_rejected(self, channel):
        with pytest.raises(ChannelError):
            channel.server.unprotect(b"tiny")

    def test_sequence_space_exhaustion_is_a_coded_error(self, channel, platform):
        channel.client._send_seq = 2**64 - 1
        last = channel.client.protect(b"last")
        assert last[:8] == b"\xff" * 8
        assert channel.server.unprotect(last) == b"last"
        cycles = platform.clock.cycles
        # Was a bare OverflowError, after bumping the counter and the clock.
        with pytest.raises(ChannelError, match="sequence space exhausted"):
            channel.client.protect(b"one too many")
        assert channel.client.records_protected == 2**64
        assert platform.clock.cycles == cycles

    def test_direction_keys_differ(self, channel):
        # A client record must not open as a server record (reflection).
        record = channel.client.protect(b"data")
        with pytest.raises(ChannelError):
            channel.client.unprotect(record)

    def test_ciphertext_hides_plaintext(self, channel):
        record = channel.client.protect(b"SENSITIVE-TAG-BYTES")
        assert b"SENSITIVE-TAG-BYTES" not in record


class TestNullChannel:
    def test_passthrough(self):
        a, b = NullChannelEndpoint(), NullChannelEndpoint()
        assert b.unprotect(a.protect(b"data")) == b"data"

    def test_still_sequences(self):
        a, b = NullChannelEndpoint(), NullChannelEndpoint()
        r1 = a.protect(b"one")
        a.protect(b"two")
        b.unprotect(r1)
        with pytest.raises(ChannelError):
            b.unprotect(r1)
