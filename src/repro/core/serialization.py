"""Function-agnostic parsers with a uniform serialization interface.

"The parsers, OCALLs and related data structures are implemented in a
function-agnostic way with uniform serialization interface, so they are
capable of handling different functions intended for deduplication.  To
support [a] new function ... the only step is to associate it with a
proper parser from existing ones or create a new one with customized
serialization for the function's input and output." (§IV-B)

A :class:`Parser` turns one Python value into canonical bytes and back.
Canonicality matters twice: the *input* encoding feeds the tag (equal
inputs must encode equally) and the *result* encoding feeds the AEAD.
The registry resolves a parser by declared name or by value type.
"""

from __future__ import annotations

import abc
import math
import re
import struct
from typing import Any

import numpy as np

from ..errors import SerializationError
from ..net.framing import FieldReader, FieldWriter, Layout, unpack


class Parser(abc.ABC):
    """Uniform serialization interface: value <-> canonical bytes."""

    name: str = "abstract"

    @abc.abstractmethod
    def encode(self, value: Any) -> bytes: ...

    @abc.abstractmethod
    def decode(self, data: bytes) -> Any: ...


class BytesParser(Parser):
    name = "bytes"

    def encode(self, value: Any) -> bytes:
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise SerializationError(f"bytes parser got {type(value).__name__}")
        return bytes(value)

    def decode(self, data: bytes) -> bytes:
        return data


class TextParser(Parser):
    name = "text"

    def encode(self, value: Any) -> bytes:
        if not isinstance(value, str):
            raise SerializationError(f"text parser got {type(value).__name__}")
        return value.encode("utf-8")

    def decode(self, data: bytes) -> str:
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError("invalid UTF-8 payload") from exc


class IntParser(Parser):
    name = "int"

    def encode(self, value: Any) -> bytes:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SerializationError(f"int parser got {type(value).__name__}")
        length = max(1, (value.bit_length() + 8) // 8)  # room for sign
        return value.to_bytes(length, "big", signed=True)

    def decode(self, data: bytes) -> int:
        if not data:
            raise SerializationError("empty int payload")
        return int.from_bytes(data, "big", signed=True)


class FloatParser(Parser):
    name = "float"

    def encode(self, value: Any) -> bytes:
        if not isinstance(value, float):
            raise SerializationError(f"float parser got {type(value).__name__}")
        return struct.pack(">d", value)

    def decode(self, data: bytes) -> float:
        if len(data) != 8:
            raise SerializationError("float payload must be 8 bytes")
        return struct.unpack(">d", data)[0]


class NdarrayParser(Parser):
    """Canonical numpy array encoding: dtype, shape, C-order buffer (fixed-size numeric kinds)."""

    name = "ndarray"
    _MAX_NDIM = 32
    _DTYPE_TEXT = re.compile(r"[<>|][biufc][0-9]{1,2}")

    def encode(self, value: Any) -> bytes:
        if not isinstance(value, np.ndarray):
            raise SerializationError(f"ndarray parser got {type(value).__name__}")
        arr = np.ascontiguousarray(value)
        if not self._DTYPE_TEXT.fullmatch(arr.dtype.str):
            raise SerializationError(f"ndarray of dtype {arr.dtype} is not fixed-size numeric")
        w = FieldWriter()
        w.text(arr.dtype.str)
        w.u32(arr.ndim)
        for dim in arr.shape:
            w.u64(dim)
        w.blob(arr.tobytes())
        return w.getvalue()

    def decode(self, data: bytes) -> np.ndarray:
        r = FieldReader(data)
        text = r.text()
        try:  # only the text encode writes; numpy may lack a type of that size
            dtype = np.dtype(text) if self._DTYPE_TEXT.fullmatch(text) else None
        except TypeError:
            dtype = None
        if dtype is None or dtype.str != text:
            raise SerializationError(f"ndarray dtype {text!r:.40} refused")
        ndim = r.u32()
        if ndim > self._MAX_NDIM:
            raise SerializationError(f"ndarray with {ndim} dims rejected")
        shape = tuple(r.u64() for _ in range(ndim))
        buf = r.blob()
        r.expect_end()
        if len(buf) != dtype.itemsize * math.prod(shape):  # Python ints: no wrap
            raise SerializationError("ndarray buffer length mismatch")
        try:
            return np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
        except ValueError as exc:  # an empty array with dims numpy cannot index
            raise SerializationError(f"ndarray shape {shape} refused") from exc


class TupleParser(Parser):
    """Composite parser for fixed-arity tuples of parseable values."""

    def __init__(self, *element_parsers: Parser):
        if not element_parsers:
            raise SerializationError("TupleParser needs at least one element parser")
        self._parsers = element_parsers
        self.name = "tuple(" + ",".join(p.name for p in element_parsers) + ")"

    def encode(self, value: Any) -> bytes:
        if not isinstance(value, tuple) or len(value) != len(self._parsers):
            raise SerializationError(
                f"expected a {len(self._parsers)}-tuple, got {value!r:.60}"
            )
        w = FieldWriter()
        for parser, element in zip(self._parsers, value):
            w.blob(parser.encode(element))
        return w.getvalue()

    def decode(self, data: bytes) -> tuple:
        r = FieldReader(data)
        out = tuple(parser.decode(r.blob()) for parser in self._parsers)
        r.expect_end()
        return out


class ListParser(Parser):
    """Homogeneous variable-length sequences."""

    def __init__(self, element_parser: Parser):
        self._element = element_parser
        self.name = f"list({element_parser.name})"

    def encode(self, value: Any) -> bytes:
        if not isinstance(value, (list, tuple)):
            raise SerializationError(f"list parser got {type(value).__name__}")
        w = FieldWriter()
        w.u32(len(value))
        for element in value:
            w.blob(self._element.encode(element))
        return w.getvalue()

    def decode(self, data: bytes) -> list:
        r = FieldReader(data)
        count = r.u32()
        out = [self._element.decode(r.blob()) for _ in range(count)]
        r.expect_end()
        return out


class MappingParser(Parser):
    """String-keyed mappings with sorted (canonical) key order."""

    def __init__(self, value_parser: Parser):
        self._value = value_parser
        self.name = f"mapping({value_parser.name})"

    def encode(self, value: Any) -> bytes:
        if not isinstance(value, dict):
            raise SerializationError(f"mapping parser got {type(value).__name__}")
        w = FieldWriter()
        w.u32(len(value))
        for key in sorted(value):
            if not isinstance(key, str):
                raise SerializationError("mapping keys must be strings")
            w.text(key)
            w.blob(self._value.encode(value[key]))
        return w.getvalue()

    def decode(self, data: bytes) -> dict:
        r = FieldReader(data)
        count = r.u32()
        out = {}
        for _ in range(count):
            key = r.text()
            out[key] = self._value.decode(r.blob())
        r.expect_end()
        return out


class AnyParser(Parser):
    """Self-describing parser: prefixes the concrete parser's name.

    This is the default when a ``Deduplicable`` is created without
    explicit parsers — the concrete parser is resolved from the registry
    by value type at encode time and by recorded name at decode time, so
    results can be decoded on a cache hit without ever seeing a value.
    """

    name = "any"
    _LAYOUT = Layout(("parser", "text"), ("value", "blob"))

    def __init__(self, registry: "ParserRegistry"):
        self._registry = registry

    def encode(self, value: Any) -> bytes:
        parser = self._registry.for_value(value)
        out: list[bytes] = []
        self._LAYOUT._write(out, {"parser": parser.name, "value": parser.encode(value)})
        return b"".join(out)

    def decode(self, data: bytes) -> Any:
        fields = unpack(self._LAYOUT, data)
        return self._registry.by_name(fields["parser"]).decode(fields["value"])


class ParserRegistry:
    """Resolves parsers by name or by value type."""

    def __init__(self):
        self._by_name: dict[str, Parser] = {}
        self._by_type: list[tuple[type, Parser]] = []

    def register(self, parser: Parser, *types: type) -> None:
        if parser.name in self._by_name:
            raise SerializationError(f"parser {parser.name!r} already registered")
        self._by_name[parser.name] = parser
        for t in types:
            self._by_type.append((t, parser))

    def by_name(self, name: str) -> Parser:
        parser = self._by_name.get(name)
        if parser is None:
            raise SerializationError(f"no parser named {name!r}")
        return parser

    def for_value(self, value: Any) -> Parser:
        for t, parser in self._by_type:
            if isinstance(value, t):
                return parser
        raise SerializationError(
            f"no parser registered for type {type(value).__name__}; "
            "pass one explicitly when creating the Deduplicable"
        )


def default_registry() -> ParserRegistry:
    """Registry with the built-in parsers pre-registered."""
    registry = ParserRegistry()
    registry.register(BytesParser(), bytes, bytearray, memoryview)
    registry.register(TextParser(), str)
    registry.register(NdarrayParser(), np.ndarray)
    registry.register(IntParser(), int)
    registry.register(FloatParser(), float)
    return registry
