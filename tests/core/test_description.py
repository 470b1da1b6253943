"""Function descriptions, trusted libraries, and code identity."""

import pytest

from repro.core.description import (
    FunctionDescription,
    TrustedLibrary,
    TrustedLibraryRegistry,
    code_fingerprint,
)
from repro.crypto.hashes import tagged_hash
from repro.errors import DedupError


def func_a(data: bytes) -> bytes:
    return data + b"a"


def func_a_clone(data: bytes) -> bytes:
    return data + b"a"


def func_b(data: bytes) -> bytes:
    return data + b"b"


def make_registry():
    libs = TrustedLibraryRegistry()
    libs.register(TrustedLibrary("libx", "1.0").add("f(bytes)", func_a))
    return libs


DESC = FunctionDescription("libx", "1.0", "f(bytes)")


class TestDescription:
    def test_canonical_bytes_deterministic(self):
        assert DESC.canonical_bytes() == FunctionDescription("libx", "1.0", "f(bytes)").canonical_bytes()

    def test_fields_separate(self):
        assert DESC.canonical_bytes() != FunctionDescription("libx", "1.1", "f(bytes)").canonical_bytes()
        assert DESC.canonical_bytes() != FunctionDescription("liby", "1.0", "f(bytes)").canonical_bytes()

    def test_str_matches_paper_shape(self):
        assert str(DESC) == '("libx", "1.0", f(bytes))'


class TestCodeFingerprint:
    def test_identical_code_identical_fingerprint(self):
        # Two functions with the same bytecode fingerprint identically —
        # this is what makes *cross-application* deduplication work.
        assert code_fingerprint(func_a) == code_fingerprint(func_a_clone)

    def test_different_code_differs(self):
        assert code_fingerprint(func_a) != code_fingerprint(func_b)

    def test_builtin_fallback(self):
        assert code_fingerprint(len) != code_fingerprint(abs)


class TestRegistry:
    def test_lookup(self):
        assert make_registry().lookup(DESC) is func_a

    def test_missing_library(self):
        with pytest.raises(DedupError, match="does not link"):
            make_registry().lookup(FunctionDescription("ghost", "1.0", "f(bytes)"))

    def test_missing_version(self):
        with pytest.raises(DedupError):
            make_registry().lookup(FunctionDescription("libx", "9.9", "f(bytes)"))

    def test_missing_signature(self):
        with pytest.raises(DedupError, match="no function"):
            make_registry().lookup(FunctionDescription("libx", "1.0", "other()"))

    def test_duplicate_library_rejected(self):
        libs = make_registry()
        with pytest.raises(DedupError):
            libs.register(TrustedLibrary("libx", "1.0"))

    def test_duplicate_signature_rejected(self):
        with pytest.raises(DedupError):
            TrustedLibrary("l", "1").add("f", func_a).add("f", func_b)


class TestFunctionIdentity:
    def test_same_across_applications(self):
        # Two independent registries (two applications) linking the same
        # library derive the same identity.
        libs1 = make_registry()
        libs2 = TrustedLibraryRegistry()
        libs2.register(TrustedLibrary("libx", "1.0").add("f(bytes)", func_a_clone))
        assert libs1.function_identity(DESC) == libs2.function_identity(DESC)

    def test_different_code_same_description_differs(self):
        # An app that claims the description but links different code
        # derives a different identity (cannot share results).
        libs1 = make_registry()
        libs2 = TrustedLibraryRegistry()
        libs2.register(TrustedLibrary("libx", "1.0").add("f(bytes)", func_b))
        assert libs1.function_identity(DESC) != libs2.function_identity(DESC)

    def test_version_matters(self):
        libs = TrustedLibraryRegistry()
        libs.register(TrustedLibrary("libx", "1.0").add("f(bytes)", func_a))
        libs.register(TrustedLibrary("libx", "2.0").add("f(bytes)", func_a))
        id1 = libs.function_identity(FunctionDescription("libx", "1.0", "f(bytes)"))
        id2 = libs.function_identity(FunctionDescription("libx", "2.0", "f(bytes)"))
        assert id1 != id2

    def test_the_memo_equals_the_unmemoised_derivation(self):
        libs = make_registry()
        derived = tagged_hash(
            b"speed/func-identity", DESC.canonical_bytes(), code_fingerprint(func_a)
        )
        assert libs.function_identity(DESC) == derived
        assert libs.function_identity(DESC) == derived  # served from the memo

    def test_a_swapped_code_object_changes_the_identity(self):
        def func(data: bytes) -> bytes:
            return data + b"a"

        libs = TrustedLibraryRegistry()
        libs.register(TrustedLibrary("libx", "1.0").add("f(bytes)", func))
        before = libs.function_identity(DESC)
        func.__code__ = func_b.__code__
        after = libs.function_identity(DESC)
        assert after != before
        assert after == tagged_hash(
            b"speed/func-identity", DESC.canonical_bytes(), code_fingerprint(func_b)
        )

    def test_code_identity_covers_all_libraries(self):
        libs1 = make_registry()
        libs2 = make_registry()
        assert libs1.code_identity() == libs2.code_identity()
        libs2.register(TrustedLibrary("extra", "0.1").add("g()", func_b))
        assert libs1.code_identity() != libs2.code_identity()
