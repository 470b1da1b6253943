"""Adversarial-input fuzzing: malformed bytes anywhere on the untrusted
surface must raise clean library errors (or be answered with protocol
errors), never crash or hang the trusted components."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.compress import inflate
from repro.core.serialization import (
    AnyParser,
    IntParser,
    ListParser,
    MappingParser,
    TextParser,
    TupleParser,
    default_registry,
)
from repro.deployment import Deployment
from repro.errors import SerializationError, SpeedError
from repro.net.channel import NullChannelEndpoint
from repro.net.messages import decode_message
from repro.store.resultstore import StoreConfig


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
        from repro.sgx.cost_model import SimClock
        from tests.net.conftest import plain_channel_pair

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


def _serialization_encodings() -> dict:
    """``name -> (parser, valid encoding)``: every parser of
    ``default_registry()`` on its own and behind ``AnyParser``, and
    ``List`` / ``Mapping`` / ``Tuple`` parsers nested in one another."""
    registry = default_registry()
    any_ = AnyParser(registry)
    values = [b"result bytes", "r\u00e9sultat", np.arange(6, dtype="<f8").reshape(2, 3),
              -(2 ** 40) + 3, 2.5]
    cases = {}
    for value in values:
        parser = registry.for_value(value)
        cases[parser.name] = (parser, parser.encode(value))
        cases[f"any/{parser.name}"] = (any_, any_.encode(value))
    assert set(registry._by_name) <= set(cases)
    nested = {
        "list": (ListParser(TupleParser(any_, IntParser())), [(b"a", 1), ("b", 2)]),
        "mapping": (MappingParser(ListParser(any_)),
                    {"x": [1.0, np.zeros(2, dtype=np.uint8)], "y": []}),
        "tuple": (TupleParser(MappingParser(IntParser()), ListParser(TextParser()), any_),
                  ({"k": 3}, ["p", "q"], np.array([[1 + 2j]]))),
    }
    for name, (parser, value) in nested.items():
        cases[name] = (parser, parser.encode(value))
    return cases


SERIALIZATION_ENCODINGS = _serialization_encodings()

#: What a length word is overwritten with: the largest, the sign bit, none.
HOSTILE_LENGTHS = (0xFFFFFFFF, 0x80000000, 0)


@st.composite
def mutated_encodings(draw):
    """(parser, bytes): a real encoding with bits flipped, a cut, bytes
    inserted, or a word that reads as a length overwritten."""
    name = draw(st.sampled_from(sorted(SERIALIZATION_ENCODINGS)))
    parser, valid = SERIALIZATION_ENCODINGS[name]
    kind = draw(st.sampled_from(("flip", "truncate", "insert", "length")))
    if kind == "flip":
        at = draw(st.integers(0, len(valid) - 1))
        flipped = valid[at] ^ draw(st.integers(1, 255))
        return parser, valid[:at] + bytes([flipped]) + valid[at + 1:]
    if kind == "truncate":
        return parser, valid[:draw(st.integers(0, len(valid) - 1))]
    if kind == "insert":
        at = draw(st.integers(0, len(valid)))
        return parser, valid[:at] + draw(st.binary(min_size=1, max_size=8)) + valid[at:]
    # A word that fits in the encoding reads like a length: aim there.
    words = [i for i in range(len(valid) - 3)
             if int.from_bytes(valid[i:i + 4], "big") <= len(valid)]
    at = draw(st.sampled_from(words or range(len(valid) - 3)))
    hostile = draw(st.sampled_from(HOSTILE_LENGTHS)).to_bytes(4, "big")
    return parser, valid[:at] + hostile + valid[at + 4:]


class TestSerializationFuzzing:
    @given(st.binary(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_any_parser_decode_never_crashes(self, data):
        try:
            AnyParser(default_registry()).decode(data)
        except SpeedError:
            pass

    def test_every_encoding_round_trips(self):
        for parser, valid in SERIALIZATION_ENCODINGS.values():
            assert parser.encode(parser.decode(valid)) == valid

    @given(mutated_encodings())
    @settings(max_examples=400, deadline=None)
    def test_mutated_encodings_decode_or_raise_serialization_error(self, case):
        parser, data = case
        try:
            parser.decode(data)
        except SerializationError:
            pass
