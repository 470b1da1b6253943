"""Parsers: canonical roundtrips, registry resolution, AnyParser."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.serialization import (
    AnyParser,
    BytesParser,
    FloatParser,
    IntParser,
    ListParser,
    MappingParser,
    NdarrayParser,
    TextParser,
    TupleParser,
    default_registry,
)
from repro.errors import SerializationError
from repro.net.framing import FieldWriter


class TestScalarParsers:
    @given(st.binary(max_size=256))
    @settings(max_examples=30, deadline=None)
    def test_bytes_roundtrip(self, value):
        p = BytesParser()
        assert p.decode(p.encode(value)) == value

    @given(st.text(max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_text_roundtrip(self, value):
        p = TextParser()
        assert p.decode(p.encode(value)) == value

    @given(st.integers(min_value=-(2**200), max_value=2**200))
    @settings(max_examples=50, deadline=None)
    def test_int_roundtrip(self, value):
        p = IntParser()
        assert p.decode(p.encode(value)) == value

    @given(st.floats(allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_float_roundtrip(self, value):
        p = FloatParser()
        assert p.decode(p.encode(value)) == value

    def test_type_mismatches_rejected(self):
        with pytest.raises(SerializationError):
            BytesParser().encode("not bytes")
        with pytest.raises(SerializationError):
            TextParser().encode(b"not str")
        with pytest.raises(SerializationError):
            IntParser().encode(True)  # bool is not an int here
        with pytest.raises(SerializationError):
            FloatParser().encode(1)


class TestNdarrayParser:
    @given(
        arrays(
            dtype=st.sampled_from([np.uint8, np.int32, np.float64]),
            shape=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, arr):
        p = NdarrayParser()
        out = p.decode(p.encode(arr))
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert np.array_equal(out, arr, equal_nan=True)

    def test_canonical_under_views(self):
        # A transposed copy and its contiguous version encode identically.
        p = NdarrayParser()
        base = np.arange(12).reshape(3, 4)
        assert p.encode(base.T) == p.encode(np.ascontiguousarray(base.T))

    def test_truncated_buffer_rejected(self):
        p = NdarrayParser()
        data = p.encode(np.zeros((2, 2)))
        with pytest.raises(SerializationError):
            p.decode(data[:-8])


    @pytest.mark.parametrize("dtype_text", [b"<\n8", b"|O8"])
    def test_a_dtype_that_is_not_fixed_size_numeric_is_refused(self, dtype_text):
        # An object array would read pointers out of the buffer; a dtype
        # numpy cannot parse raised a bare TypeError.
        p = AnyParser(default_registry())
        data = p.encode(np.array([1.5, 2.5]))
        assert data.count(b"<f8") == 1
        with pytest.raises(SerializationError):
            p.decode(data.replace(b"<f8", dtype_text))
        with pytest.raises(SerializationError):
            NdarrayParser().encode(np.array(["text"]))

    @pytest.mark.parametrize("shape", [(2**63, 2), (0, 2**63), (2**40, 2**40, 0)])
    def test_an_empty_buffer_with_huge_dims_is_refused(self, shape):
        # np.prod over int64 wrapped (2**63 * 2 -> 0) and matched the empty
        # buffer; reshape then raised a bare ValueError.
        w = FieldWriter().text("|u1").u32(len(shape))
        for dim in shape:
            w.u64(dim)
        with pytest.raises(SerializationError):
            NdarrayParser().decode(w.blob(b"").getvalue())


class TestCompositeParsers:
    def test_tuple_roundtrip(self):
        p = TupleParser(BytesParser(), IntParser(), TextParser())
        value = (b"abc", -42, "hello")
        assert p.decode(p.encode(value)) == value

    def test_tuple_arity_enforced(self):
        p = TupleParser(BytesParser(), IntParser())
        with pytest.raises(SerializationError):
            p.encode((b"only-one",))

    def test_list_roundtrip(self):
        p = ListParser(IntParser())
        assert p.decode(p.encode([1, 2, 3])) == [1, 2, 3]
        assert p.decode(p.encode([])) == []

    def test_mapping_roundtrip_sorted(self):
        p = MappingParser(IntParser())
        value = {"zebra": 1, "apple": 2}
        assert p.decode(p.encode(value)) == value
        # Canonical: encoding is independent of insertion order.
        assert p.encode({"a": 1, "b": 2}) == p.encode({"b": 2, "a": 1})

    def test_mapping_rejects_non_string_keys(self):
        with pytest.raises(SerializationError):
            MappingParser(IntParser()).encode({1: 2})


class TestRegistry:
    def test_resolution_by_type(self):
        registry = default_registry()
        assert registry.for_value(b"x").name == "bytes"
        assert registry.for_value("x").name == "text"
        assert registry.for_value(np.zeros(2)).name == "ndarray"
        assert registry.for_value(5).name == "int"
        assert registry.for_value(1.5).name == "float"

    def test_unknown_type(self):
        with pytest.raises(SerializationError, match="no parser registered"):
            default_registry().for_value(object())

    def test_unknown_name(self):
        with pytest.raises(SerializationError):
            default_registry().by_name("ghost")

    def test_duplicate_name_rejected(self):
        registry = default_registry()
        with pytest.raises(SerializationError):
            registry.register(BytesParser())


class TestAnyParser:
    @pytest.mark.parametrize("value", [b"bytes", "text", 42, 2.5])
    def test_roundtrip_scalars(self, value):
        p = AnyParser(default_registry())
        assert p.decode(p.encode(value)) == value

    def test_roundtrip_ndarray(self):
        p = AnyParser(default_registry())
        arr = np.arange(6, dtype=np.uint8).reshape(2, 3)
        assert np.array_equal(p.decode(p.encode(arr)), arr)

    def test_distinct_types_distinct_encodings(self):
        p = AnyParser(default_registry())
        assert p.encode(b"1") != p.encode("1")
