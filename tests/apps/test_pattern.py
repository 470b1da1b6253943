"""Pattern matching: regex engine, Aho-Corasick, rulesets."""

import re as stdlib_re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.pattern import (
    AhoCorasick,
    CompiledRuleset,
    Regex,
    Rule,
    make_scan_function,
)
from repro.errors import SpeedError


def pcre_exec(pattern: str, payload: bytes) -> bool:
    """``pcre_exec(·)``'s shape: compile ``pattern``, search ``payload``."""
    return Regex(pattern).search(payload)


class TestRegexSemantics:
    CASES = [
        (r"abc", b"xxabcxx", True),
        (r"abc", b"ab", False),
        (r"^abc", b"abcx", True),
        (r"^abc", b"xabc", False),
        (r"abc$", b"xabc", True),
        (r"abc$", b"abcx", False),
        (r"a.c", b"azc", True),
        (r"a.c", b"a\nc", False),
        (r"[0-9]+\.[0-9]+", b"ver 1.25 ok", True),
        (r"(GET|POST) /admin", b"POST /admin HTTP/1.1", True),
        (r"(GET|POST) /admin", b"PUT /admin", False),
        (r"\d{3}-\d{4}", b"call 555-1234", True),
        (r"\d{3}-\d{4}", b"call 55-1234", False),
        (r"a{2,4}b", b"aaab", True),
        (r"a{2,4}b", b"ab", False),
        (r"a{2,4}b", b"aaaaab", True),  # unanchored: suffix "aaaab" matches
        (r"^a{2,4}b$", b"aaaaab", False),
        (r"colou?r", b"color", True),
        (r"[^a-z]{3}", b"ABC", True),
        (r"\x41\x42", b"xAB", True),
        (r"^$", b"", True),
        (r"^$", b"x", False),
        (r"a*", b"", True),
        (r"(ab)+c", b"abababc", True),
        (r"\w+@\w+\.(com|net)", b"mail bob@example.net ok", True),
        (r"\s\S\s", b"a b c", True),
        (r"[\x00-\x08]", b"\x05", True),
        (r"a|b|c", b"zzc", True),
    ]

    @pytest.mark.parametrize("pattern,text,expected", CASES)
    def test_case(self, pattern, text, expected):
        assert pcre_exec(pattern, text) is expected

    @given(st.text(alphabet="abcxyz019 ", min_size=0, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_literal_always_matches_itself(self, literal):
        assert Regex(stdlib_re.escape(literal).replace("\\ ", " ")).search(
            literal.encode()
        )

    @given(
        st.text(alphabet="abc", min_size=1, max_size=6),
        st.text(alphabet="abcd", min_size=0, max_size=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_stdlib_on_literals(self, needle, haystack):
        assert Regex(needle).search(haystack.encode()) == bool(
            stdlib_re.search(needle.encode(), haystack.encode())
        )

    def test_no_catastrophic_backtracking(self):
        # (a+)+b against aaaa...c is exponential for backtrackers;
        # the Thompson simulation stays linear.
        assert pcre_exec(r"(a+)+b", b"a" * 200 + b"c") is False


class TestRegexErrors:
    @pytest.mark.parametrize("bad", [
        "(unclosed", "unopened)", "a{5,2}", "a{999}", "[z-a]", "[unterminated",
        "*leading", "a{,", r"tail\x0", "",
    ])
    def test_malformed_patterns_rejected(self, bad):
        if bad == "":
            assert Regex("").search(b"anything")  # empty pattern matches all
        else:
            with pytest.raises(SpeedError):
                Regex(bad)


class TestAhoCorasick:
    def test_classic_example(self):
        ac = AhoCorasick([b"he", b"she", b"his", b"hers"])
        assert ac.contains_which(b"ushers") == {0, 1, 3}

    def test_empty_pattern_rejected(self):
        with pytest.raises(SpeedError):
            AhoCorasick([b"ok", b""])

    def test_no_patterns_rejected(self):
        with pytest.raises(SpeedError):
            AhoCorasick([])

    @given(
        st.lists(st.binary(min_size=1, max_size=4), min_size=1, max_size=6),
        st.binary(max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_naive_search(self, patterns, text):
        ac = AhoCorasick(patterns)
        expected = {
            i for i, p in enumerate(patterns) if p in text
        }
        # Duplicated patterns: any index with the same bytes may report.
        found = ac.contains_which(text)
        found_bytes = {patterns[i] for i in found}
        expected_bytes = {patterns[i] for i in expected}
        assert found_bytes == expected_bytes


class TestRuleset:
    def rules(self):
        return [
            Rule(1, "literal", contents=(b"EVIL",)),
            Rule(2, "two literals", contents=(b"GET ", b"/admin")),
            Rule(3, "pcre only", pcre=r"user=\w{1,8};"),
            Rule(4, "literal + pcre", contents=(b"Host:",), pcre=r"Host: [a-z]+\.ru"),
        ]

    def test_single_content(self):
        rs = CompiledRuleset(self.rules())
        assert rs.scan(b"xxEVILxx") == [1]

    def test_all_contents_required(self):
        rs = CompiledRuleset(self.rules())
        assert rs.scan(b"GET /index") == []
        assert rs.scan(b"GET /admin HTTP/1.1") == [2]

    def test_pcre_only_rule(self):
        rs = CompiledRuleset(self.rules())
        assert rs.scan(b"user=bob;") == [3]

    def test_content_prefilter_gates_pcre(self):
        rs = CompiledRuleset(self.rules())
        assert rs.scan(b"Host: evil.ru") == [4]
        assert rs.scan(b"Host: good.com") == []
        assert rs.scan(b"no host header evil.ru") == []

    def test_multiple_rules_sorted(self):
        rs = CompiledRuleset(self.rules())
        assert rs.scan(b"EVIL GET /admin user=x; data") == [1, 2, 3]

    def test_duplicate_rule_ids_rejected(self):
        with pytest.raises(SpeedError):
            CompiledRuleset([Rule(1, "a", contents=(b"x",)),
                             Rule(1, "b", contents=(b"y",))])

    def test_rule_needs_content_or_pcre(self):
        with pytest.raises(SpeedError):
            Rule(9, "empty")

    def test_fingerprint_reflects_rules(self):
        a = CompiledRuleset(self.rules()).fingerprint()
        b = CompiledRuleset(self.rules()[:-1]).fingerprint()
        assert a != b
        assert a == CompiledRuleset(self.rules()).fingerprint()


class TestScanFunction:
    def test_make_scan_function_binds_ruleset(self):
        scan, version = make_scan_function([Rule(1, "r", contents=(b"XYZZY",))])
        assert scan(b"say XYZZY now") == [1]
        assert "rules-" in version

    def test_versions_differ_per_ruleset(self):
        _, v1 = make_scan_function([Rule(1, "r", contents=(b"A",))])
        _, v2 = make_scan_function([Rule(1, "r", contents=(b"B",))])
        assert v1 != v2
