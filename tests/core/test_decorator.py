"""The decorator front end for self-defined functions."""

import pytest

from repro.core.decorator import deduplicable_marker
from repro.deployment import Deployment
from tests.conftest import make_libs


@pytest.fixture
def marked_app(deployment):
    return deployment.create_application("decorated", make_libs())


class TestDecorator:
    def test_decorated_function_deduplicates(self, deployment, marked_app):
        mark = deduplicable_marker(marked_app)

        @mark(version="1.0")
        def triple(data: bytes) -> bytes:
            return data * 3

        assert triple(b"ab") == b"ababab"
        marked_app.runtime.flush_puts()
        assert triple(b"ab") == b"ababab"
        assert marked_app.runtime.stats.hits == 1

    def test_wrapper_exposes_original(self, marked_app):
        mark = deduplicable_marker(marked_app)

        @mark()
        def shout(text: str) -> str:
            return text.upper()

        assert shout.original("hi") == "HI"
        assert shout.__name__ == "shout"
        assert shout.description.family.startswith("app:")

    def test_versions_are_isolated(self, deployment, marked_app):
        mark = deduplicable_marker(marked_app)

        def body(data: bytes) -> bytes:
            return data[::-1]

        v1 = mark(version="1.0", signature="rev(bytes)")(body)
        v2 = mark(version="2.0", signature="rev(bytes)")(body)
        v1(b"abc")
        marked_app.runtime.flush_puts()
        v2(b"abc")
        # Same code, different declared versions: no sharing.
        assert marked_app.runtime.stats.hits == 0

    def test_cross_application_sharing_of_identical_functions(self, deployment):
        app_a = deployment.create_application("deco-a", make_libs())
        app_b = deployment.create_application("deco-b", make_libs())

        def make(app):
            mark = deduplicable_marker(app)

            @mark(version="1.0", signature="fold(bytes)")
            def fold(data: bytes) -> bytes:
                return bytes(b ^ 0x5A for b in data)

            return fold

        fold_a, fold_b = make(app_a), make(app_b)
        out = fold_a(b"shared")
        app_a.runtime.flush_puts()
        assert fold_b(b"shared") == out
        assert app_b.runtime.stats.hits == 1

    def test_multi_argument_decorated(self, marked_app):
        mark = deduplicable_marker(marked_app)

        @mark(version="1.0")
        def repeat(chunk: bytes, times: int) -> bytes:
            return chunk * times

        assert repeat(b"xy", 3) == b"xyxyxy"
        marked_app.runtime.flush_puts()
        repeat(b"xy", 3)
        assert marked_app.runtime.stats.hits == 1
