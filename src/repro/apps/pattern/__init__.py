"""Case study 3: multi-pattern packet scanning (libpcre + Snort rules).

Aho-Corasick literal prefilter (:mod:`.ahocorasick`), a Thompson-NFA
regex engine (:mod:`.regex`), Snort-style rules (:mod:`.ruleset`), and
the deduplicable scanning front end (:mod:`.matcher`).
"""

from .ahocorasick import AhoCorasick
from .matcher import (
    FUNCTION_SIGNATURE,
    LIBRARY_FAMILY,
    LIBRARY_VERSION,
    make_scan_function,
)
from .regex import Regex
from .ruleset import CompiledRuleset, Rule

__all__ = [
    "AhoCorasick",
    "CompiledRuleset",
    "FUNCTION_SIGNATURE",
    "LIBRARY_FAMILY",
    "LIBRARY_VERSION",
    "Regex",
    "Rule",
    "make_scan_function",
]
