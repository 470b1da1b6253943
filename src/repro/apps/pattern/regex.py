"""A Thompson-NFA regular-expression engine over bytes.

The libpcre substitute for the paper's Case 3.  Supports the subset that
Snort-style rules actually use: literals, ``.``, escapes (``\\d \\w \\s
\\n \\t \\r \\xHH`` and their negations), character classes with ranges
and negation, alternation, groups, the quantifiers ``* + ? {m} {m,n}``,
and the anchors ``^ $``.  Matching is linear-time set-of-states
simulation — no backtracking blowups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...errors import SpeedError

_MAX_REPEAT = 64


# -- AST -----------------------------------------------------------------
@dataclass(frozen=True)
class _CharSet:
    allowed: frozenset[int]

    def matches(self, byte: int) -> bool:
        return byte in self.allowed


@dataclass(frozen=True)
class _Concat:
    parts: tuple


@dataclass(frozen=True)
class _Alt:
    options: tuple


@dataclass(frozen=True)
class _Repeat:
    node: object
    min_count: int
    max_count: int | None  # None = unbounded


@dataclass(frozen=True)
class _Anchor:
    kind: str  # "start" or "end"


_DIGITS = frozenset(range(0x30, 0x3A))
_WORD = frozenset(
    list(range(0x30, 0x3A)) + list(range(0x41, 0x5B)) + list(range(0x61, 0x7B)) + [0x5F]
)
_SPACE = frozenset([0x20, 0x09, 0x0A, 0x0D, 0x0B, 0x0C])
_ALL = frozenset(range(256))
_DOT = frozenset(range(256)) - frozenset([0x0A])


class _Parser:
    def __init__(self, pattern: str):
        self._p = pattern
        self._i = 0

    def _peek(self) -> str | None:
        return self._p[self._i] if self._i < len(self._p) else None

    def _next(self) -> str:
        if self._i >= len(self._p):
            raise SpeedError(f"unexpected end of pattern {self._p!r}")
        ch = self._p[self._i]
        self._i += 1
        return ch

    def parse(self):
        node = self._alternation()
        if self._i != len(self._p):
            raise SpeedError(f"trailing junk at {self._i} in {self._p!r}")
        return node

    def _alternation(self):
        options = [self._concat()]
        while self._peek() == "|":
            self._next()
            options.append(self._concat())
        return options[0] if len(options) == 1 else _Alt(tuple(options))

    def _concat(self):
        parts = []
        while self._peek() is not None and self._peek() not in "|)":
            parts.append(self._repeat())
        if not parts:
            return _Concat(())
        return parts[0] if len(parts) == 1 else _Concat(tuple(parts))

    def _repeat(self):
        node = self._atom()
        ch = self._peek()
        if ch == "*":
            self._next()
            return _Repeat(node, 0, None)
        if ch == "+":
            self._next()
            return _Repeat(node, 1, None)
        if ch == "?":
            self._next()
            return _Repeat(node, 0, 1)
        if ch == "{":
            return _Repeat(node, *self._braces())
        return node

    def _braces(self) -> tuple[int, int | None]:
        self._next()  # '{'
        digits = ""
        while self._peek() and self._peek().isdigit():
            digits += self._next()
        if not digits:
            raise SpeedError("malformed {m,n} quantifier")
        low = int(digits)
        high: int | None = low
        if self._peek() == ",":
            self._next()
            digits = ""
            while self._peek() and self._peek().isdigit():
                digits += self._next()
            high = int(digits) if digits else None
        if self._next() != "}":
            raise SpeedError("unterminated {m,n} quantifier")
        if high is not None and (high < low or high > _MAX_REPEAT):
            raise SpeedError(f"repeat bound out of range in {self._p!r}")
        if low > _MAX_REPEAT:
            raise SpeedError(f"repeat bound out of range in {self._p!r}")
        return low, high

    def _atom(self):
        ch = self._next()
        if ch == "(":
            node = self._alternation()
            if self._next() != ")":
                raise SpeedError("unbalanced parenthesis")
            return node
        if ch == "[":
            return self._char_class()
        if ch == ".":
            return _CharSet(_DOT)
        if ch == "^":
            return _Anchor("start")
        if ch == "$":
            return _Anchor("end")
        if ch == "\\":
            return _CharSet(self._escape())
        if ch in ")|*+?{":
            raise SpeedError(f"unexpected {ch!r} in {self._p!r}")
        return _CharSet(frozenset([ord(ch)]))

    def _escape(self) -> frozenset[int]:
        ch = self._next()
        if ch == "d":
            return _DIGITS
        if ch == "D":
            return _ALL - _DIGITS
        if ch == "w":
            return _WORD
        if ch == "W":
            return _ALL - _WORD
        if ch == "s":
            return _SPACE
        if ch == "S":
            return _ALL - _SPACE
        if ch == "n":
            return frozenset([0x0A])
        if ch == "r":
            return frozenset([0x0D])
        if ch == "t":
            return frozenset([0x09])
        if ch == "0":
            return frozenset([0x00])
        if ch == "x":
            hex_digits = self._next() + self._next()
            try:
                return frozenset([int(hex_digits, 16)])
            except ValueError:
                raise SpeedError(f"bad \\x escape in {self._p!r}") from None
        # Escaped metacharacter.
        return frozenset([ord(ch)])

    def _char_class(self):
        negate = False
        if self._peek() == "^":
            self._next()
            negate = True
        allowed: set[int] = set()
        first = True
        while True:
            ch = self._peek()
            if ch is None:
                raise SpeedError("unterminated character class")
            if ch == "]" and not first:
                self._next()
                break
            first = False
            ch = self._next()
            if ch == "\\":
                escaped = self._escape()
                if len(escaped) != 1:
                    allowed |= escaped  # class escape like \d — no range
                    continue
                lo = next(iter(escaped))
            else:
                lo = ord(ch)
            if self._peek() == "-" and self._i + 1 < len(self._p) and self._p[self._i + 1] != "]":
                self._next()  # '-'
                hi_ch = self._next()
                if hi_ch == "\\":
                    hi_set = self._escape()
                    if len(hi_set) != 1:
                        raise SpeedError("class escape cannot end a range")
                    hi = next(iter(hi_set))
                else:
                    hi = ord(hi_ch)
                if hi < lo:
                    raise SpeedError("reversed range in character class")
                allowed |= set(range(lo, hi + 1))
            else:
                allowed.add(lo)
        result = frozenset(allowed)
        return _CharSet(_ALL - result if negate else result)


# -- NFA -----------------------------------------------------------------
@dataclass
class _State:
    # byte-consuming edges: (charset, target); epsilon edges: targets.
    edges: list[tuple[frozenset[int], int]] = field(default_factory=list)
    epsilon: list[int] = field(default_factory=list)
    anchor_start: list[int] = field(default_factory=list)
    anchor_end: list[int] = field(default_factory=list)


class Regex:
    """A compiled pattern; thread-safe and reusable."""

    def __init__(self, pattern: str):
        self.pattern = pattern
        ast = _Parser(pattern).parse()
        self._states: list[_State] = [_State()]
        start = self._new_state()
        self._start = start
        accept = self._compile(ast, start)
        self._accept = self._new_state()
        self._states[accept].epsilon.append(self._accept)

    def _new_state(self) -> int:
        self._states.append(_State())
        return len(self._states) - 1

    def _compile(self, node, entry: int) -> int:
        """Wire ``node`` starting at ``entry``; return its exit state."""
        if isinstance(node, _CharSet):
            exit_state = self._new_state()
            self._states[entry].edges.append((node.allowed, exit_state))
            return exit_state
        if isinstance(node, _Anchor):
            exit_state = self._new_state()
            if node.kind == "start":
                self._states[entry].anchor_start.append(exit_state)
            else:
                self._states[entry].anchor_end.append(exit_state)
            return exit_state
        if isinstance(node, _Concat):
            current = entry
            for part in node.parts:
                current = self._compile(part, current)
            return current
        if isinstance(node, _Alt):
            exit_state = self._new_state()
            for option in node.options:
                branch_entry = self._new_state()
                self._states[entry].epsilon.append(branch_entry)
                branch_exit = self._compile(option, branch_entry)
                self._states[branch_exit].epsilon.append(exit_state)
            return exit_state
        if isinstance(node, _Repeat):
            current = entry
            for _ in range(node.min_count):
                current = self._compile(node.node, current)
            if node.max_count is None:
                loop_entry = self._new_state()
                self._states[current].epsilon.append(loop_entry)
                body_exit = self._compile(node.node, loop_entry)
                self._states[body_exit].epsilon.append(loop_entry)
                exit_state = self._new_state()
                self._states[loop_entry].epsilon.append(exit_state)
                return exit_state
            exit_state = self._new_state()
            self._states[current].epsilon.append(exit_state)
            for _ in range(node.max_count - node.min_count):
                current = self._compile(node.node, current)
                self._states[current].epsilon.append(exit_state)
            return exit_state
        raise SpeedError(f"unknown AST node {node!r}")

    # -- simulation ---------------------------------------------------------
    def _closure(self, states: set[int], at_start: bool, at_end: bool) -> set[int]:
        stack = list(states)
        seen = set(states)
        while stack:
            s = stack.pop()
            nxt = list(self._states[s].epsilon)
            if at_start:
                nxt += self._states[s].anchor_start
            if at_end:
                nxt += self._states[s].anchor_end
            for t in nxt:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    def search(self, text: bytes) -> bool:
        """Unanchored containment test in O(len(text) · states)."""
        current = self._closure({self._start}, at_start=True, at_end=len(text) == 0)
        if self._accept in current:
            return True
        for i, byte in enumerate(text):
            nxt: set[int] = set()
            for s in current:
                for charset, target in self._states[s].edges:
                    if byte in charset:
                        nxt.add(target)
            # Unanchored: a match may also begin at position i + 1.
            nxt.add(self._start)
            at_end = i == len(text) - 1
            current = self._closure(nxt, at_start=False, at_end=at_end)
            if self._accept in current:
                return True
        return False
