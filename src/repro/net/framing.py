"""Binary field codec used by every wire message and parser.

SPEED requires a *uniform serialization interface* so DedupRuntime and
ResultStore stay function-agnostic (§II-C, §IV-B).  This module is that
interface's lowest layer: a small, explicit, length-prefixed binary
format (no pickle — the store is untrusted and must never be able to make
an application deserialize arbitrary objects).

Layout primitives: ``u8``, ``u32``/``u64`` big-endian, ``boolean`` as
one byte, ``blob`` (bytes with a ``u32`` length prefix) and ``text`` (a
UTF-8 blob).

Every byte format — the wire messages, the WAL segment and its records,
the store image, the checkpoint and the store-to-store hand-off — is one
declared :class:`Layout` of ``(field, primitive)`` pairs, compiled once
into the encoder and decoder behind :func:`pack` / :func:`unpack` and
:func:`read_fields`; a :class:`FieldWriter` / :class:`FieldReader` call
is a one-field layout, so there is one codec.
"""

from __future__ import annotations

import dataclasses
import struct

from ..errors import ProtocolError, SerializationError


class FieldWriter:
    """Appends typed fields to a growing buffer; each is a one-field
    :class:`Layout`."""

    def __init__(self):
        self._chunks: list[bytes] = []

    def _field(self, kind: str, value) -> "FieldWriter":
        _PRIMITIVES[kind]._write(self._chunks, {"value": value})
        return self

    def u8(self, value: int) -> "FieldWriter":
        return self._field("u8", value)

    def u32(self, value: int) -> "FieldWriter":
        return self._field("u32", value)

    def u64(self, value: int) -> "FieldWriter":
        return self._field("u64", value)

    def boolean(self, value: bool) -> "FieldWriter":
        return self._field("boolean", value)

    def blob(self, value: bytes) -> "FieldWriter":
        return self._field("blob", value)

    def text(self, value: str) -> "FieldWriter":
        return self._field("text", value)

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class FieldReader:
    """Consumes typed fields from a buffer; raises on truncation."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _field(self, kind: str):
        return read_fields(self, _PRIMITIVES[kind])["value"]

    def u8(self) -> int:
        return self._field("u8")

    def u32(self) -> int:
        return self._field("u32")

    def u64(self) -> int:
        return self._field("u64")

    def boolean(self) -> bool:
        return self._field("boolean")

    def blob(self) -> bytes:
        return self._field("blob")

    def text(self) -> str:
        return self._field("text")

    def expect_end(self) -> None:
        unpack(_EMPTY, self._data, self._pos)

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos


class Layout:
    """One declared byte format: ``(field, primitive)`` pairs in wire order.

    A primitive names a :class:`FieldWriter` / :class:`FieldReader`
    method or is a :class:`Repeated`.  Values are read and written as
    field dicts or, given ``cls``, as its instances (written from their
    attributes, built with their other fields at their defaults).  The
    layout compiles its encoder and its decoder once each, on first use
    (:func:`_compile`).
    """

    __slots__ = ("fields", "cls", "_write", "_read")

    def __init__(self, *fields, cls=None):
        self.fields, self.cls = fields, cls

    def __getattr__(self, name):  # an unset ``_write`` or ``_read``: compile it
        setattr(self, name, _compile(self, write=name == "_write"))
        return getattr(self, name)


class Repeated:
    """A ``u32`` count, then that many items of ``layout``; a count above
    ``limit`` is a :class:`~repro.errors.ProtocolError`."""

    __slots__ = ("layout", "limit")

    def __init__(self, layout: Layout, limit: int | None = None):
        self.layout, self.limit = layout, limit


_CODES = {"u8": "B", "u32": "I", "u64": "Q", "boolean": "?"}


def _truncated(data, pos: int, wanted: int):
    raise SerializationError(f"truncated message: {wanted} bytes wanted at {pos} of {len(data)}")


def _compile(layout: Layout, write: bool = False):
    """``layout``'s encoder ``write(out, values)``, which adds its chunks to
    the list ``out`` in one step per repeated item, or its decoder ``read(data, pos) -> (value, pos)``: Python
    source made once and run through ``exec``.  A run of fixed-width
    fields, with the ``u32`` length or count that ends it, is one
    ``struct.Struct``; blobs are sliced inline; a repeated item's code is
    inlined in its parent's loop; a decoded instance gets its field dict
    in one step, not an ``object.__setattr__`` per field as a frozen
    dataclass's ``__init__`` makes.  Decoders stay total: every read is
    bounds-checked first and every failure is a coded error."""
    lines = []
    env = {"_truncated": _truncated, "_new": object.__new__, "_set": object.__setattr__,
           "struct": struct, "SerializationError": SerializationError,
           "ProtocolError": ProtocolError}

    def name(prefix, value=None):
        env[f"{prefix}{len(env)}"] = value
        return f"{prefix}{len(env) - 1}"

    def getter(layout, held):  # a layout of a class writes from its attributes
        return (lambda f: f"{held}.{f}") if layout.cls else (lambda f: f"{held}[{f!r}]")

    def writes(layout, get, pad):
        fmt, args, chunks = "", [], []

        def flush():  # the chunks so far, added to ``out`` in one step
            if chunks:
                lines.append(f"{pad}out += ({', '.join(chunks)},)")
                chunks.clear()

        for field, kind in layout.fields:
            if kind in _CODES:
                fmt, args = fmt + _CODES[kind], args + [get(field)]
                continue
            held = name("v")
            lines.append(f"{pad}{held} = {get(field)}" + (".encode()" if kind == "text" else ""))
            packer = name("s", struct.Struct(">" + fmt + "I"))
            chunks.append(f"{packer}.pack({', '.join(args + [f'len({held})'])})")
            fmt, args = "", []
            if not isinstance(kind, Repeated):
                chunks.append(held)
                continue
            flush()
            item = name("item")
            lines.append(f"{pad}for {item} in {held}:")
            writes(kind.layout, getter(kind.layout, item), pad + "    ")
        if fmt:
            chunks.append(f"{name('s', struct.Struct('>' + fmt))}.pack({', '.join(args)})")
        flush()

    def reads(layout, pad):
        fmt, run, fields = "", [], []
        for field, kind in layout.fields + ((None, None),):  # the sentinel ends the last run
            held = name("x")
            if kind is not None:
                fmt, run = fmt + _CODES.get(kind, "I"), run + [held]
                fields.append(f"{field!r}: {held}")
            if kind in _CODES or not run:
                continue
            unpacker = struct.Struct(">" + fmt.replace("?", "B"))
            lines.extend([
                f"{pad}if pos + {unpacker.size} > n: _truncated(data, pos, {unpacker.size})",
                f"{pad}{', '.join(run)}, = {name('s', unpacker)}.unpack_from(data, pos)",
                f"{pad}pos += {unpacker.size}",
            ])
            for flag in (x for x, code in zip(run, fmt) if code == "?"):
                lines.append(f"{pad}if {flag} > 1: raise SerializationError("
                             f"f'invalid boolean byte: {{{flag}}}')")
                lines.append(f"{pad}{flag} = {flag} == 1")
            fmt, run = "", []
            if isinstance(kind, Repeated):
                items = name("items")
                if kind.limit is not None:
                    lines.append(f"{pad}if {held} > {kind.limit}: raise ProtocolError("
                                 f"f'batch of {{{held}}} items exceeds limit {kind.limit}')")
                lines.extend([f"{pad}{items} = []", f"{pad}for _ in range({held}):"])
                lines.append(f"{pad}    {items}.append({reads(kind.layout, pad + '    ')})")
                lines.append(f"{pad}{held} = tuple({items})")
            elif kind is not None:
                lines.extend([
                    f"{pad}end = pos + {held}",
                    f"{pad}if end > n: _truncated(data, pos, {held})",
                    f"{pad}{held} = " + ("str(data[pos:end], 'utf-8')" if kind == "text"
                                         else "data[pos:end]"),
                    f"{pad}pos = end",
                ])
        result, cls = name("r"), layout.cls
        if cls is None:
            lines.append(f"{pad}{result} = {{{', '.join(fields)}}}")
        else:
            named = {field for field, _ in layout.fields}
            defaults = {f.name: f.default for f in dataclasses.fields(cls) if f.name not in named}
            lines.append(f"{pad}{result} = _new({name('cls', cls)})")
            lines.append(f"{pad}_set({result}, '__dict__', "
                         f"{{**{name('d', defaults)}, {', '.join(fields)}}})")
        return result

    if write:
        lines.append("def write(out, values):\n    try:")
        writes(layout, getter(layout, "values"), " " * 8)
        lines.append("    except struct.error as exc:\n"
                     "        raise SerializationError(f'field out of range: {exc}') from exc")
    else:
        lines.append("def read(data, pos):\n    n = len(data)\n    try:")
        result = reads(layout, " " * 8)
        lines.append("    except UnicodeDecodeError as exc:\n"
                     "        raise SerializationError('invalid UTF-8 in text field') from exc\n"
                     f"    return {result}, pos")
    exec("\n".join(lines), env)
    return env["write" if write else "read"]


_PRIMITIVES = {kind: Layout(("value", kind)) for kind in [*_CODES, "blob", "text"]}
_EMPTY = Layout()


def read_fields(reader: FieldReader, layout: Layout):
    """Consume one value per ``layout`` field, as ``{field: value}`` or,
    for a layout of a class, as its instance (``__init__`` not run)."""
    value, reader._pos = layout._read(reader._data, reader._pos)
    return value


def pack(layout: Layout, values) -> bytes:
    """A whole payload holding exactly ``layout``."""
    out: list[bytes] = []
    layout._write(out, values)
    return b"".join(out)


def unpack(layout: Layout, data: bytes, start: int = 0):
    """Parse ``data[start:]``, which holds exactly ``layout`` (no trailing bytes)."""
    values, pos = layout._read(data, start)
    if pos != len(data):
        raise SerializationError(f"{len(data) - pos} trailing bytes after message")
    return values
