"""Constant-time comparison helpers.

The simulated enclave still follows cryptographic hygiene: tag and MAC
comparisons must not leak how many leading bytes matched.  CPython cannot
give hard constant-time guarantees, but :func:`hmac.compare_digest` is the
standard best-effort primitive and we centralise its use here.
"""

from __future__ import annotations

import hmac


def bytes_eq(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without early exit on the first mismatch."""
    if not isinstance(a, (bytes, bytearray)) or not isinstance(b, (bytes, bytearray)):
        raise TypeError("bytes_eq() expects bytes-like arguments")
    return hmac.compare_digest(bytes(a), bytes(b))

