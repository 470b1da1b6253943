"""Additional regex-engine coverage: escapes, classes, group nesting."""

import pytest

from repro.apps.pattern.regex import Regex

from .test_pattern import pcre_exec


class TestEscapeClasses:
    @pytest.mark.parametrize("pattern,text,expected", [
        (r"\D+", b"abc", True),
        (r"^\D+$", b"ab1c", False),
        (r"\W", b"hello world", True),   # the space
        (r"^\w+$", b"hello world", False),
        (r"\S+\s\S+", b"two words", True),
        (r"\0", b"\x00", True),
        (r"\.", b"a.b", True),
        (r"\.", b"axb", False),
        (r"\\", b"back\\slash", True),
        (r"\(\)", b"()", True),
    ])
    def test_case(self, pattern, text, expected):
        assert pcre_exec(pattern, text) is expected


class TestClasses:
    @pytest.mark.parametrize("pattern,text,expected", [
        (r"[\d]", b"x5", True),
        (r"[^\d]", b"55a", True),
        (r"^[^\d]+$", b"5a", False),
        (r"[a\-z]", b"-", True),          # escaped dash is literal
        (r"[]a]", b"]", True),            # ']' first is literal
        (r"[a-c-]", b"-", True),          # trailing dash is literal
        (r"[\x30-\x39]+", b"042", True),
    ])
    def test_case(self, pattern, text, expected):
        assert pcre_exec(pattern, text) is expected


class TestGroupsAndQuantifiers:
    @pytest.mark.parametrize("pattern,text,expected", [
        (r"(a(b(c)))d", b"abcd", True),
        (r"(ab|cd)+ef", b"abcdabef", True),
        (r"(|x)y", b"y", True),           # empty alternative
        (r"x{0,2}y", b"y", True),
        (r"x{0,2}y", b"xxy", True),
        (r"^x{2}$", b"xx", True),
        (r"^x{2}$", b"x", False),
        (r"(ab){2,3}", b"ababab", True),
        (r"^(ab){2,3}$", b"ab", False),
        (r"a?b?c?", b"", True),
    ])
    def test_case(self, pattern, text, expected):
        assert pcre_exec(pattern, text) is expected

    def test_linear_on_nested_quantifiers(self):
        # A pathological backtracking pattern stays fast.
        assert Regex(r"(x*)*y").search(b"x" * 300) is False

    def test_reuse_is_safe(self):
        compiled = Regex(r"ab+c")
        assert compiled.search(b"abbbc")
        assert not compiled.search(b"ac")
        assert compiled.search(b"zzabczz")
