"""Every byte format encodes exactly as pinned.

The wire frames, the sealed WAL segment, the store image, the checkpoint
and the hand-off payload are formats other parties (and older sealed
state) depend on, so a refactor of the codec must not move one byte.
Each digest below is ``sha256`` of one encoding: the wire examples of
``tests/net/test_messages.py`` in order, and the at-rest plaintexts of
``tests/durable/test_decoders_total.py``'s ``valid_encodings()``.  A
deliberate format change re-pins the lines it moves (and bumps the
format's version).
"""

import hashlib

import pytest

from repro.net.messages import encode_message

from .durable.test_decoders_total import valid_encodings
from .net.test_messages import EXAMPLES

WIRE_DIGESTS = [
    "e273608643a6e5e8eec39432e8e1dff033718fd1052a36d1c7734c921ab1f69b",
    "f0d278eacbee4eeac1f3cc75d5efda8dc5dff129bed3da9ad3b0e11fc64ae910",
    "5b27a7c2167b3a252eb5e9de227d2aebd9c7ff62afb0af65e36490c7aa4f9048",
    "9e1b940ceb994a5b203b715ebaab9928bd89880f897b1ec5e215216190bfd08d",
    "24e89d9f4a2b00439c028a0036c2eb6fa95b795c4b0f42ace89104f557474470",
    "0e7984177adfa74b32c7951788dfed299572fc8b30d2d23fa4969b13e4e20f37",
    "28661b9c9833f16ef8f86c75f18fdaeffa56070448ed26c7bde7608b53d1e419",
    "1dfe38b827e55f673e9b6e821bb074246bc5fb042e9da814f6bcd2c60dd9ced2",
    "0d4d7a0ec1320447f501ad0d92fb7db5e9d9f43580aec09476436370f08dd78c",
    "51f9c6cda03691d8dc50df8b2dd35d24d801a66b6becc8342845d61986337596",
    "a82a70b7906db21edde35e4f8db7fa94bb43ad17982bda9598daea8e3d401145",
    "1380d0fb3ef191ff6338e44718f1baf247364a9359526c9196e6f467fa6cc3a3",
    "749367704790702f5a69e380f9c40a39a97be2087f76704a202181500148ec8a",
    "80d44ebfd5e0a0431750567325ffe22975de0cad2bbfe9b66ebe001e53115e89",
    "03b3874624d6f0a588786e00e7c1e2d3afa9716f3fb963ed1bd59a4e10dbf301",
]

AT_REST_DIGESTS = {
    "segment": "4b197fec9382ffd0cc9c5e2678b9e4878372916c63b94d33b02c655aa381e7d5",
    "checkpoint": "39e6ded98363dced253ec67b0e6a0503f7c412925719d6ef2abca5bbed08d2c0",
    "image": "ac65eefbf6e7a45a3628d93c06616333141f4983b67c515a02d919b7d963d5f2",
    "shipped": "99f94eb6153bc0f2001c2ae96ad3e02acc2bf3ed84e811c18aa717bceb0590f6",
}


def test_every_wire_example_is_pinned():
    assert len(WIRE_DIGESTS) == len(EXAMPLES)


@pytest.mark.parametrize(
    "msg, digest", zip(EXAMPLES, WIRE_DIGESTS),
    ids=[f"{i}-{type(msg).__name__}" for i, msg in enumerate(EXAMPLES)],
)
def test_wire_frame_bytes(msg, digest):
    assert hashlib.sha256(encode_message(msg)).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(AT_REST_DIGESTS))
def test_at_rest_and_hand_off_bytes(name):
    _decoder, payload = valid_encodings()[name]
    assert hashlib.sha256(payload).hexdigest() == AT_REST_DIGESTS[name]
