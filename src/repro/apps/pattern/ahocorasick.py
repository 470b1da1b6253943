"""Aho-Corasick multi-pattern string matching.

Virus scanners and IDSes (ClamAV, Snort — the paper's Case 3 context)
pre-filter packets against thousands of literal "content" strings with
exactly this automaton before running expensive per-rule regexes.
"""

from __future__ import annotations

from collections import deque

from ...errors import SpeedError


class AhoCorasick:
    """Automaton over byte strings; built once, searched many times."""

    def __init__(self, patterns: list[bytes]):
        if not patterns:
            raise SpeedError("AhoCorasick needs at least one pattern")
        for p in patterns:
            if not p:
                raise SpeedError("empty patterns are not allowed")
        self.patterns = [bytes(p) for p in patterns]
        # State 0 is the root.  goto is a list of dicts byte -> state.
        self._goto: list[dict[int, int]] = [{}]
        self._fail: list[int] = [0]
        self._output: list[list[int]] = [[]]
        self._build()

    def _build(self) -> None:
        for index, pattern in enumerate(self.patterns):
            state = 0
            for byte in pattern:
                nxt = self._goto[state].get(byte)
                if nxt is None:
                    nxt = len(self._goto)
                    self._goto.append({})
                    self._fail.append(0)
                    self._output.append([])
                    self._goto[state][byte] = nxt
                state = nxt
            self._output[state].append(index)
        # BFS to fill failure links and merge outputs.
        queue: deque[int] = deque()
        for state in self._goto[0].values():
            queue.append(state)
        while queue:
            state = queue.popleft()
            for byte, nxt in self._goto[state].items():
                queue.append(nxt)
                fail = self._fail[state]
                while fail and byte not in self._goto[fail]:
                    fail = self._fail[fail]
                self._fail[nxt] = self._goto[fail].get(byte, 0)
                if self._fail[nxt] == nxt:
                    self._fail[nxt] = 0
                self._output[nxt] = self._output[nxt] + self._output[self._fail[nxt]]

    def _step(self, state: int, byte: int) -> int:
        while state and byte not in self._goto[state]:
            state = self._fail[state]
        return self._goto[state].get(byte, 0)

    def contains_which(self, text: bytes) -> set[int]:
        """Set of pattern indices occurring at least once (early-merged)."""
        found: set[int] = set()
        state = 0
        for byte in text:
            state = self._step(state, byte)
            if self._output[state]:
                found.update(self._output[state])
        return found
