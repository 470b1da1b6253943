"""SPEED core: the paper's primary contribution.

Function descriptions and trusted-library identity (:mod:`.description`),
function-agnostic serialization (:mod:`.serialization`), tag derivation
(:mod:`.tag`), the result-protection schemes of §III-B / §III-C
(:mod:`.scheme`), the Fig. 3 verification protocol (:mod:`.verification`),
the DedupRuntime (:mod:`.runtime`), and the 2-lines-of-code developer API
(:mod:`.deduplicable`).
"""

from .adaptive import AdaptiveDedupPolicy, FunctionProfile
from .decorator import deduplicable_marker
from .deduplicable import Deduplicable
from .description import (
    FunctionDescription,
    TrustedLibrary,
    TrustedLibraryRegistry,
    code_fingerprint,
)
from .runtime import DedupResult, DedupRuntime, RuntimeConfig
from .scheme import (
    CrossAppScheme,
    ProtectedResult,
    ResultScheme,
    SingleKeyScheme,
)
from .serialization import (
    AnyParser,
    BytesParser,
    FloatParser,
    IntParser,
    ListParser,
    MappingParser,
    NdarrayParser,
    Parser,
    ParserRegistry,
    TextParser,
    TupleParser,
    default_registry,
)
from .stats import CallRecord, RuntimeStats
from .tag import TAG_SIZE, derive_locking_hash, derive_tag
from .verification import VerificationOutcome

__all__ = [
    "AdaptiveDedupPolicy",
    "AnyParser",
    "BytesParser",
    "CallRecord",
    "CrossAppScheme",
    "Deduplicable",
    "DedupResult",
    "DedupRuntime",
    "FunctionProfile",
    "FloatParser",
    "FunctionDescription",
    "IntParser",
    "ListParser",
    "MappingParser",
    "NdarrayParser",
    "Parser",
    "ParserRegistry",
    "ProtectedResult",
    "ResultScheme",
    "RuntimeConfig",
    "RuntimeStats",
    "SingleKeyScheme",
    "TAG_SIZE",
    "TextParser",
    "TrustedLibrary",
    "TrustedLibraryRegistry",
    "TupleParser",
    "VerificationOutcome",
    "code_fingerprint",
    "deduplicable_marker",
    "default_registry",
    "derive_locking_hash",
    "derive_tag",
]
