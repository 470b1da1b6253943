"""LZ77 match finding with hash chains (the zlib strategy).

Tokenises input into literals and (length, distance) back-references
over a 32 KiB sliding window, minimum match 3, maximum 258 — the same
parameter envelope as zlib's deflate, which the paper's Case 2 wraps.
"""

from __future__ import annotations

from dataclasses import dataclass

WINDOW_SIZE = 32 * 1024
MIN_MATCH = 3
MAX_MATCH = 258
MAX_CHAIN = 32  # bounded chain walk, like zlib's "good" compression levels


@dataclass(frozen=True)
class Token:
    """Either a literal byte (``length == 0``) or a back-reference."""

    literal: int = 0
    length: int = 0
    distance: int = 0

    @property
    def is_match(self) -> bool:
        return self.length >= MIN_MATCH


def tokenize(data: bytes) -> list[Token]:
    """Greedy LZ77 parse with one-step lazy matching."""
    n = len(data)
    tokens: list[Token] = []
    head: dict[int, list[int]] = {}
    pos = 0

    def key_at(i: int) -> int:
        return data[i] | (data[i + 1] << 8) | (data[i + 2] << 16)

    def find_match(i: int) -> tuple[int, int]:
        """Best (length, distance) at position i, or (0, 0)."""
        if i + MIN_MATCH > n:
            return 0, 0
        chain = head.get(key_at(i))
        if not chain:
            return 0, 0
        best_len, best_dist = 0, 0
        limit = min(MAX_MATCH, n - i)
        for candidate in reversed(chain[-MAX_CHAIN:]):
            if i - candidate > WINDOW_SIZE:
                break
            length = 0
            while length < limit and data[candidate + length] == data[i + length]:
                length += 1
            if length > best_len:
                best_len, best_dist = length, i - candidate
                if length >= limit:
                    break
        return (best_len, best_dist) if best_len >= MIN_MATCH else (0, 0)

    def insert(i: int) -> None:
        if i + MIN_MATCH <= n:
            head.setdefault(key_at(i), []).append(i)

    while pos < n:
        length, distance = find_match(pos)
        if length:
            # Lazy evaluation: prefer a longer match starting one byte later.
            next_length, _ = find_match(pos + 1) if pos + 1 < n else (0, 0)
            if next_length > length:
                tokens.append(Token(literal=data[pos]))
                insert(pos)
                pos += 1
                continue
            tokens.append(Token(length=length, distance=distance))
            end = pos + length
            while pos < end:
                insert(pos)
                pos += 1
        else:
            tokens.append(Token(literal=data[pos]))
            insert(pos)
            pos += 1
    return tokens
