"""Wire messages exchanged between DedupRuntime and ResultStore.

These are the ``XXX_REQUEST`` / ``XXX_RESPONSE`` structures of §IV-B,
implemented "in a function-agnostic way with uniform serialization"
(§II-C): tags, challenges, wrapped keys, and sealed results are opaque
byte strings at this layer.

Every message carries a ``request_id`` in its header: servers echo the
requester's id into the response so that a client multiplexing
synchronous calls and one-way sends on one endpoint can match each
response to its request.  The id is transport bookkeeping, not message
content — it is excluded from equality.

``BATCH_*`` messages carry many GET/PUT items under one header (and
therefore one channel record and one server-side ECALL): the batched
hot path that amortizes per-message overhead across items.

Each message declares its body once, as a ``LAYOUT``
(:class:`~repro.net.framing.Layout`); :func:`encode_message` and
:func:`decode_message` are the whole codec.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field

from .framing import FieldReader, FieldWriter, Layout, Repeated, read_fields, write_fields
from ..errors import ProtocolError

# Upper bound on items per batch message; a decoded count beyond this is
# a protocol violation (defends the store against resource-exhaustion
# payloads that claim absurd item counts).
MAX_BATCH_ITEMS = 65536


class MessageType(enum.IntEnum):
    GET_REQUEST = 1
    GET_RESPONSE = 2
    PUT_REQUEST = 3
    PUT_RESPONSE = 4
    # 5 and 6 were SYNC_REQUEST / SYNC_RESPONSE, retired: store-to-store
    # hand-offs travel only between attested store enclaves
    # (repro.store.sync).  Never reuse them.
    ERROR = 7
    BATCH_GET_REQUEST = 8
    BATCH_GET_RESPONSE = 9
    BATCH_PUT_REQUEST = 10
    BATCH_PUT_RESPONSE = 11


@dataclass(frozen=True)
class GetRequest:
    """Duplicate check: does the store hold a result for ``tag``?"""

    tag: bytes
    app_id: str = ""
    request_id: int = field(default=0, compare=False)

    TYPE = MessageType.GET_REQUEST
    LAYOUT = Layout(("tag", "blob"), ("app_id", "text"))


@dataclass(frozen=True)
class GetResponse:
    """Store's answer: ``found`` plus ``(r, [k], [res])`` when positive
    (Algorithm 2, line 3).

    ``reason`` annotates negative answers: a plain miss carries an empty
    reason, while the cluster router marks items whose every owner timed
    out so the caller can tell "recompute because unknown" apart from
    "recompute because the owning shards were unreachable".  Either way
    the fail-safe action is the same (Algorithm 1 recompute).
    """

    found: bool
    challenge: bytes = b""
    wrapped_key: bytes = b""
    sealed_result: bytes = b""
    reason: str = ""
    request_id: int = field(default=0, compare=False)

    TYPE = MessageType.GET_RESPONSE
    LAYOUT = Layout(
        ("found", "boolean"), ("challenge", "blob"), ("wrapped_key", "blob"),
        ("sealed_result", "blob"), ("reason", "text"),
    )


@dataclass(frozen=True)
class PutRequest:
    """Store an initial computation's ``(r, [k], [res])`` under ``tag``
    (Algorithm 1, line 10)."""

    tag: bytes
    challenge: bytes
    wrapped_key: bytes
    sealed_result: bytes
    app_id: str = ""
    request_id: int = field(default=0, compare=False)

    TYPE = MessageType.PUT_REQUEST
    LAYOUT = Layout(
        ("tag", "blob"), ("challenge", "blob"), ("wrapped_key", "blob"),
        ("sealed_result", "blob"), ("app_id", "text"),
    )


@dataclass(frozen=True)
class PutResponse:
    accepted: bool
    reason: str = ""
    request_id: int = field(default=0, compare=False)

    TYPE = MessageType.PUT_RESPONSE
    LAYOUT = Layout(("accepted", "boolean"), ("reason", "text"))


def _batch_of(item_cls) -> Layout:
    """A ``BATCH_*`` body: up to ``MAX_BATCH_ITEMS`` ``item_cls`` bodies."""
    item = Layout(*item_cls.LAYOUT.fields, cls=item_cls)
    return Layout(("items", Repeated(item, MAX_BATCH_ITEMS)))


@dataclass(frozen=True)
class BatchGetRequest:
    """Many duplicate checks under one header: one channel record, one
    store-side ECALL, N dictionary probes."""

    items: tuple[GetRequest, ...]
    request_id: int = field(default=0, compare=False)

    TYPE = MessageType.BATCH_GET_REQUEST
    LAYOUT = _batch_of(GetRequest)


@dataclass(frozen=True)
class BatchGetResponse:
    """Per-item answers, in the order of the request's items."""

    items: tuple[GetResponse, ...]
    request_id: int = field(default=0, compare=False)

    TYPE = MessageType.BATCH_GET_RESPONSE
    LAYOUT = _batch_of(GetResponse)


@dataclass(frozen=True)
class BatchPutRequest:
    """Many initial-computation stores under one header."""

    items: tuple[PutRequest, ...]
    request_id: int = field(default=0, compare=False)

    TYPE = MessageType.BATCH_PUT_REQUEST
    LAYOUT = _batch_of(PutRequest)


@dataclass(frozen=True)
class BatchPutResponse:
    """Per-item verdicts, in the order of the request's items."""

    items: tuple[PutResponse, ...]
    request_id: int = field(default=0, compare=False)

    TYPE = MessageType.BATCH_PUT_RESPONSE
    LAYOUT = _batch_of(PutResponse)


@dataclass(frozen=True)
class ErrorMessage:
    code: int
    detail: str = ""
    request_id: int = field(default=0, compare=False)

    TYPE = MessageType.ERROR
    LAYOUT = Layout(("code", "u32"), ("detail", "text"))


# Each message type's frame after its type byte: the request id, then the body.
_FRAMES = {
    cls.TYPE: Layout(("request_id", "u64"), *cls.LAYOUT.fields, cls=cls)
    for cls in (
        GetRequest,
        GetResponse,
        PutRequest,
        PutResponse,
        ErrorMessage,
        BatchGetRequest,
        BatchGetResponse,
        BatchPutRequest,
        BatchPutResponse,
    )
}

Message = (
    GetRequest
    | GetResponse
    | PutRequest
    | PutResponse
    | ErrorMessage
    | BatchGetRequest
    | BatchGetResponse
    | BatchPutRequest
    | BatchPutResponse
)


def with_request_id(msg: Message, request_id: int) -> Message:
    """Return ``msg`` carrying ``request_id`` (no copy if already set)."""
    if msg.request_id == request_id:
        return msg
    return dataclasses.replace(msg, request_id=request_id)


def encode_message(msg: Message) -> bytes:
    """Serialize a message to ``type_byte || request_id || body``."""
    w = FieldWriter()
    w.u8(msg.TYPE)
    write_fields(w, _FRAMES[msg.TYPE], msg)
    return w.getvalue()


def decode_message(data: bytes) -> Message:
    """Parse a message; raises ProtocolError on an unknown type or an
    over-limit batch, SerializationError on malformed or trailing bytes."""
    r = FieldReader(data)
    frame = _FRAMES.get(r.u8())
    if frame is None:
        raise ProtocolError(f"unknown message type in {data[:8]!r}")
    msg = read_fields(r, frame)
    r.expect_end()
    return msg
