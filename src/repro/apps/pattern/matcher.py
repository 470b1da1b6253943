"""Packet-scanning front end — the deduplicable function of Case 3.

The paper wraps ``pcre_exec(·)`` so that re-scanning a packet payload
that was seen before (network traces are full of duplicates) becomes a
store lookup.  :func:`make_scan_function` returns a ``scan(payload)``
callable bound to one compiled ruleset, plus the function description to
mark it with — the ruleset fingerprint is folded into the description's
version so different rule databases never collide in the store.
"""

from __future__ import annotations

from typing import Callable

from .ruleset import CompiledRuleset, Rule

LIBRARY_FAMILY = "libpcre"
LIBRARY_VERSION = "8.40"
FUNCTION_SIGNATURE = "list[int] scan(bytes payload)"

# One module-level slot per compiled ruleset lets the returned closure be
# a plain function over (payload) — the paper's deduplicated unit.
_ACTIVE_RULESETS: dict[bytes, CompiledRuleset] = {}


def make_scan_function(rules: list[Rule]) -> tuple[Callable[[bytes], list[int]], str]:
    """Compile ``rules``; returns ``(scan, version_string)``.

    ``version_string`` is what goes into the FunctionDescription's
    version field: pcre version + ruleset fingerprint.
    """
    compiled = CompiledRuleset(rules)
    fingerprint = compiled.fingerprint()
    _ACTIVE_RULESETS[fingerprint] = compiled

    def scan(payload: bytes) -> list[int]:
        return _ACTIVE_RULESETS[fingerprint].scan(payload)

    version = f"{LIBRARY_VERSION}+rules-{fingerprint.hex()[:16]}"
    return scan, version
