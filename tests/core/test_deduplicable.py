"""The Deduplicable API: the 2-LoC adoption story of §IV-C / Fig. 4."""

import pytest

from repro import FunctionDescription, TrustedLibrary, TrustedLibraryRegistry
from repro.deployment import Deployment
from repro.errors import DedupError
from tests.conftest import DOUBLE_DESC, double_bytes


class TestTwoLineAdoption:
    def test_two_line_adoption(self, app):
        """E7 (DESIGN.md): marking a function takes exactly two lines."""
        dedup_double = app.deduplicable(DOUBLE_DESC)   # line 1
        result = dedup_double(b"input data")           # line 2
        assert result == double_bytes(b"input data")

    def test_used_as_normal_repeatedly(self, dedup_double, app):
        for payload in (b"a", b"b", b"a"):
            assert dedup_double(payload) == double_bytes(payload)
        assert app.runtime.stats.calls == 3


class TestMultiArgument:
    @pytest.fixture
    def concat_app(self):
        def concat(prefix: bytes, count: int) -> bytes:
            return prefix * count

        libs = TrustedLibraryRegistry()
        libs.register(TrustedLibrary("strkit", "1.0").add("bytes concat(bytes,int)", concat))
        deployment = Deployment(seed=b"multi-arg")
        return deployment.create_application("multi", libs)

    def test_multi_arg_call(self, concat_app):
        d = concat_app.deduplicable(FunctionDescription("strkit", "1.0", "bytes concat(bytes,int)"))
        assert d(b"ab", 3) == b"ababab"
        concat_app.runtime.flush_puts()
        assert d(b"ab", 3) == b"ababab"
        assert concat_app.runtime.stats.hits == 1

    def test_argument_order_matters_in_tag(self, concat_app):
        d = concat_app.deduplicable(FunctionDescription("strkit", "1.0", "bytes concat(bytes,int)"))
        d(b"ab", 2)
        concat_app.runtime.flush_puts()
        d(b"ab", 3)
        assert concat_app.runtime.stats.hits == 0

    def test_zero_args_rejected(self, concat_app):
        d = concat_app.deduplicable(FunctionDescription("strkit", "1.0", "bytes concat(bytes,int)"))
        with pytest.raises(TypeError):
            d()


class TestOwnershipCheck:
    def test_creating_for_unlinked_function_fails_fast(self, app):
        with pytest.raises(DedupError):
            app.deduplicable(FunctionDescription("not-linked", "1.0", "f()"))


class TestExplicitParsers:
    def test_explicit_result_parser(self, deployment):
        from repro.core.serialization import IntParser, MappingParser, TextParser

        def census(text: str) -> dict:
            return {word: len(word) for word in text.split()}

        libs = TrustedLibraryRegistry()
        libs.register(TrustedLibrary("census", "1.0").add("dict census(str)", census))
        app = deployment.create_application("census-app", libs)
        d = app.deduplicable(
            FunctionDescription("census", "1.0", "dict census(str)"),
            input_parser=TextParser(),
            result_parser=MappingParser(IntParser()),
        )
        out = d("hello wide world")
        app.runtime.flush_puts()
        assert d("hello wide world") == out == {"hello": 5, "wide": 4, "world": 5}
        assert app.runtime.stats.hits == 1
