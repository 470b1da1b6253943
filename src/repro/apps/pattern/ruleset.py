"""Snort-style detection rules and their compiled form.

The paper's Case 3 matches >3,700 Snort rule patterns against network
packets with ``pcre_exec``.  Real rules combine fast literal ``content``
strings with an optional ``pcre`` clause; engines pre-filter with a
multi-pattern automaton and only run the regex for rules whose literals
all appeared.  We reproduce that two-stage structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ahocorasick import AhoCorasick
from .regex import Regex
from ...crypto.hashes import tagged_hash
from ...errors import SpeedError


@dataclass(frozen=True)
class Rule:
    """One detection rule."""

    rule_id: int
    message: str
    contents: tuple[bytes, ...] = ()
    pcre: str | None = None

    def __post_init__(self):
        if not self.contents and self.pcre is None:
            raise SpeedError(f"rule {self.rule_id} has neither content nor pcre")


class CompiledRuleset:
    """A ruleset compiled for scanning: one automaton + per-rule regexes."""

    def __init__(self, rules: list[Rule]):
        if not rules:
            raise SpeedError("empty ruleset")
        seen_ids = set()
        for rule in rules:
            if rule.rule_id in seen_ids:
                raise SpeedError(f"duplicate rule id {rule.rule_id}")
            seen_ids.add(rule.rule_id)
        self.rules = list(rules)

        # Literal prefilter: every content string of every rule.
        self._pattern_owner: list[tuple[int, int]] = []  # (rule idx, content idx)
        patterns: list[bytes] = []
        self._content_only_regex: list[Regex | None] = []
        self._needed_contents: list[int] = []
        for rule_index, rule in enumerate(self.rules):
            self._needed_contents.append(len(rule.contents))
            for content_index, content in enumerate(rule.contents):
                patterns.append(content)
                self._pattern_owner.append((rule_index, content_index))
            self._content_only_regex.append(Regex(rule.pcre) if rule.pcre else None)
        self._automaton = AhoCorasick(patterns) if patterns else None
        # Rules with no content strings must always run their regex.
        self._always_check = [
            i for i, rule in enumerate(self.rules) if not rule.contents
        ]

    def fingerprint(self) -> bytes:
        """Stable identity of this ruleset (folds into the function
        description so different rulesets never share cached results)."""
        parts = []
        for rule in self.rules:
            parts.append(str(rule.rule_id).encode())
            parts.extend(rule.contents)
            parts.append((rule.pcre or "").encode())
        return tagged_hash(b"pattern/ruleset", *parts)

    def scan(self, payload: bytes) -> list[int]:
        """Return the sorted rule ids matching one packet payload."""
        matched: list[int] = []
        candidate_hits: dict[int, set[int]] = {}
        if self._automaton is not None and payload:
            for pattern_index in self._automaton.contains_which(payload):
                rule_index, content_index = self._pattern_owner[pattern_index]
                candidate_hits.setdefault(rule_index, set()).add(content_index)
        candidates = [
            rule_index
            for rule_index, hit in candidate_hits.items()
            if len(hit) == self._needed_contents[rule_index]
        ]
        candidates.extend(self._always_check)
        for rule_index in candidates:
            regex = self._content_only_regex[rule_index]
            if regex is None or regex.search(payload):
                matched.append(self.rules[rule_index].rule_id)
        matched.sort()
        return matched
