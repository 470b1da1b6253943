"""Adversarial-input fuzzing: malformed bytes anywhere on the untrusted
surface must raise clean library errors (or be answered with protocol
errors), never crash or hang the trusted components."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.compress import inflate
from repro.deployment import Deployment
from repro.errors import SpeedError
from repro.net.channel import NullChannelEndpoint
from repro.net.messages import decode_message
from repro.store.resultstore import StoreConfig
from tests.conftest import make_libs


class TestWireFuzzing:
    @given(st.binary(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_decode_message_never_crashes(self, data):
        try:
            decode_message(data)
        except SpeedError:
            pass  # the only acceptable failure mode

    @given(st.binary(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_channel_unprotect_never_crashes(self, record):
        from repro.store.resultstore import plain_channel_pair
        from repro.sgx.cost_model import SimClock

        _, server = plain_channel_pair(SimClock(), b"fuzz")
        try:
            server.unprotect(record)
        except SpeedError:
            pass

    def test_store_answers_garbage_with_error_response(self):
        # A connected-but-malicious client sends a record that decrypts
        # (null channel) into garbage; the store must answer, not die.
        d = Deployment(seed=b"fuzz-store", store_config=StoreConfig(use_sgx=False))
        client = d.store.connect("fuzz-client")
        endpoint = client._endpoint
        channel: NullChannelEndpoint = client._channel
        endpoint.send(d.store.address, channel.protect(b"\xff\xfe not a message"))
        _, reply = endpoint.recv()
        message = decode_message(channel.unprotect(reply))
        assert type(message).__name__ == "ErrorMessage"
        # The store remains fully functional afterwards.
        from repro.crypto.hashes import sha256
        from repro.net.messages import GetRequest

        response = client.call(GetRequest(tag=sha256(b"x"), app_id="a"))
        assert not response.found


class TestCodecFuzzing:
    @given(st.binary(max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_inflate_never_crashes(self, blob):
        try:
            inflate(blob)
        except SpeedError:
            pass

    @given(st.binary(min_size=16, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_inflate_with_valid_magic_never_crashes(self, tail):
        try:
            inflate(b"SPDZ" + tail)
        except SpeedError:
            pass


class TestSerializationFuzzing:
    @given(st.binary(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_any_parser_decode_never_crashes(self, data):
        from repro.core.serialization import AnyParser, default_registry

        try:
            AnyParser(default_registry()).decode(data)
        except SpeedError:
            pass
