"""Binary field codec used by every wire message and parser.

SPEED requires a *uniform serialization interface* so DedupRuntime and
ResultStore stay function-agnostic (§II-C, §IV-B).  This module is that
interface's lowest layer: a small, explicit, length-prefixed binary
format (no pickle — the store is untrusted and must never be able to make
an application deserialize arbitrary objects).

Layout primitives: ``u8``, ``u32``/``u64`` big-endian, ``bool`` as one
byte, and ``bytes`` with a ``u32`` length prefix.

Every byte format — the wire messages, the WAL segment and its records,
the store image, the checkpoint and the store-to-store hand-off — is one
declared :class:`Layout` of ``(field, primitive)`` pairs, encoded and
decoded by the one walker here (:func:`write_fields` /
:func:`read_fields`).
"""

from __future__ import annotations

from ..errors import ProtocolError, SerializationError

_U32_MAX = (1 << 32) - 1
_U64_MAX = (1 << 64) - 1


class FieldWriter:
    """Appends typed fields to a growing buffer."""

    def __init__(self):
        self._chunks: list[bytes] = []

    def u8(self, value: int) -> "FieldWriter":
        if not 0 <= value <= 0xFF:
            raise SerializationError(f"u8 out of range: {value}")
        self._chunks.append(bytes([value]))
        return self

    def u32(self, value: int) -> "FieldWriter":
        if not 0 <= value <= _U32_MAX:
            raise SerializationError(f"u32 out of range: {value}")
        self._chunks.append(value.to_bytes(4, "big"))
        return self

    def u64(self, value: int) -> "FieldWriter":
        if not 0 <= value <= _U64_MAX:
            raise SerializationError(f"u64 out of range: {value}")
        self._chunks.append(value.to_bytes(8, "big"))
        return self

    def boolean(self, value: bool) -> "FieldWriter":
        self._chunks.append(b"\x01" if value else b"\x00")
        return self

    def blob(self, value: bytes) -> "FieldWriter":
        if len(value) > _U32_MAX:
            raise SerializationError("blob too large for u32 length prefix")
        self._chunks.append(len(value).to_bytes(4, "big"))
        self._chunks.append(bytes(value))
        return self

    def text(self, value: str) -> "FieldWriter":
        return self.blob(value.encode("utf-8"))

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class FieldReader:
    """Consumes typed fields from a buffer; raises on truncation."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise SerializationError(
                f"truncated message: wanted {n} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "big")

    def boolean(self) -> bool:
        flag = self._take(1)[0]
        if flag not in (0, 1):
            raise SerializationError(f"invalid boolean byte: {flag}")
        return flag == 1

    def blob(self) -> bytes:
        return self._take(self.u32())

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError("invalid UTF-8 in text field") from exc

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise SerializationError(
                f"{len(self._data) - self._pos} trailing bytes after message"
            )

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos


class Layout:
    """One declared byte format: ``(field, primitive)`` pairs in wire order.

    A primitive names a :class:`FieldWriter` / :class:`FieldReader`
    method or is a :class:`Repeated`; each resolves to its pair of
    functions once, when the layout is declared.
    """

    __slots__ = ("fields", "_writes", "_reads")

    def __init__(self, *fields):
        self.fields = fields
        self._writes = tuple((name, _writer_of(kind)) for name, kind in fields)
        self._reads = tuple((name, _reader_of(kind)) for name, kind in fields)


class Repeated:
    """A ``u32`` count, then that many items of ``layout``.

    Items are instances of ``cls`` (built from their fields as keywords,
    written from ``vars``) or, without one, plain field dicts.  A count
    above ``limit`` is a :class:`~repro.errors.ProtocolError`.
    """

    __slots__ = ("layout", "cls", "limit")

    def __init__(self, layout: Layout, cls=None, limit: int | None = None):
        self.layout = layout
        self.cls = cls
        self.limit = limit

    def write(self, writer: FieldWriter, items) -> None:
        writer.u32(len(items))
        for item in items:
            write_fields(writer, self.layout, item if self.cls is None else vars(item))

    def read(self, reader: FieldReader) -> tuple:
        count = reader.u32()
        if self.limit is not None and count > self.limit:
            raise ProtocolError(f"batch of {count} items exceeds limit {self.limit}")
        if self.cls is None:
            return tuple(read_fields(reader, self.layout) for _ in range(count))
        return tuple(self.cls(**read_fields(reader, self.layout)) for _ in range(count))


def _writer_of(kind):
    return kind.write if isinstance(kind, Repeated) else getattr(FieldWriter, kind)


def _reader_of(kind):
    return kind.read if isinstance(kind, Repeated) else getattr(FieldReader, kind)


def write_fields(writer: FieldWriter, layout: Layout, values) -> None:
    """Append ``values[field]`` for each of ``layout``'s fields."""
    for name, write in layout._writes:
        write(writer, values[name])


def read_fields(reader: FieldReader, layout: Layout) -> dict:
    """Consume one value per ``layout`` field, as ``{field: value}``."""
    return {name: read(reader) for name, read in layout._reads}


def pack(layout: Layout, values) -> bytes:
    """A whole payload holding exactly ``layout``."""
    writer = FieldWriter()
    write_fields(writer, layout, values)
    return writer.getvalue()


def unpack(layout: Layout, data: bytes) -> dict:
    """Parse a whole payload holding exactly ``layout`` (no trailing bytes)."""
    reader = FieldReader(data)
    values = read_fields(reader, layout)
    reader.expect_end()
    return values
