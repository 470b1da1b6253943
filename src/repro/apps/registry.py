"""Case-study wiring: trusted libraries + descriptions + parsers.

This module is the Python rendering of the paper's Fig. 4 — the four
"Deduplicable versions" of the case-study functions.  Each
:class:`CaseStudy` bundles the trusted library an application must link,
the :class:`~repro.core.description.FunctionDescription` the developer
writes, and the parsers for input/result.  Each library links its
function with a declared ``native_cost(input) -> seconds`` — what one
call takes on the paper's platform, a coefficient below times the work
the input carries — which is what the virtual clock charges for a
computed call (DESIGN.md §2, EXPERIMENTS.md Known deviation 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import compress as _compress
from . import mapreduce as _mapreduce
from . import pattern as _pattern
from . import sift as _sift
from .pattern.ruleset import Rule
from .sift.pyramid import octave_count
from ..core.deduplicable import Deduplicable
from ..core.description import FunctionDescription, TrustedLibrary, TrustedLibraryRegistry
from ..core.serialization import (
    BytesParser,
    IntParser,
    ListParser,
    MappingParser,
    NdarrayParser,
    Parser,
    TextParser,
)
from ..deployment import Application


# Native seconds per unit of work, one coefficient per case study.  Each
# was scaled once at its Fig. 5 reference input (the ``*`` rows of
# ``python -m repro.bench.calibration``) to what Fig. 5 charged there
# while compute was host-timed: the median Python seconds of the case's
# function over 62 interleaved runs ÷ the native factor the case study
# shipped with.  Provenance: commit 0811248; a 2-vCPU virtual machine
# reporting "Intel(R) Xeon(R) Processor", CPython 3.11.7; 2026-10-17.
#: SIFT, 192 px image (4 octaves): 0.05573 s ÷ 1.
SIFT_SECONDS_PER_PIXEL_OCTAVE = 3.779e-7
#: Deflate, 64 KB of prose: 0.6417 s ÷ 110.
DEFLATE_SECONDS_PER_BYTE = 8.901e-8
#: Pattern scan, the 1 KB-payload packet (1,485 B) against 3,700 rules: 0.8611 s ÷ 2.
SCAN_SECONDS_PER_BYTE_RULE = 7.836e-8
#: BoW, an 8,000-word page (34,299 B): 0.02345 s ÷ 6.
BOW_SECONDS_PER_BYTE = 1.139e-7


@dataclass(frozen=True)
class CaseStudy:
    """Everything needed to mark one case-study function with SPEED."""

    name: str
    library: TrustedLibrary
    description: FunctionDescription
    input_parser: Parser
    result_parser: Parser
    func: Callable

    @property
    def native_cost(self) -> Callable[..., float]:
        """The cost ``func`` was linked with."""
        return self.library.costs[self.description.signature]

    def register_into(self, registry: TrustedLibraryRegistry) -> None:
        registry.register(self.library)

    def deduplicable(self, app: Application) -> Deduplicable:
        """Fig. 4, line 1: create the Deduplicable version."""
        return app.deduplicable(
            self.description,
            input_parser=self.input_parser,
            result_parser=self.result_parser,
        )


def sift_case_study() -> CaseStudy:
    """Case 1: image feature extraction via libsiftpp."""
    library = TrustedLibrary(_sift.LIBRARY_FAMILY, _sift.LIBRARY_VERSION)
    library.add(
        _sift.FUNCTION_SIGNATURE, _sift.sift,
        lambda image: SIFT_SECONDS_PER_PIXEL_OCTAVE * image.size * octave_count(image.shape),
    )
    return CaseStudy(
        name="feature-extraction",
        library=library,
        description=FunctionDescription(
            _sift.LIBRARY_FAMILY, _sift.LIBRARY_VERSION, _sift.FUNCTION_SIGNATURE
        ),
        input_parser=NdarrayParser(),
        result_parser=NdarrayParser(),
        func=_sift.sift,
    )


def compress_case_study() -> CaseStudy:
    """Case 2: data compression via zlib's deflate."""
    library = TrustedLibrary(_compress.LIBRARY_FAMILY, _compress.LIBRARY_VERSION)
    library.add(_compress.FUNCTION_SIGNATURE, _compress.deflate,
                lambda data: DEFLATE_SECONDS_PER_BYTE * len(data))
    return CaseStudy(
        name="data-compression",
        library=library,
        description=FunctionDescription(
            _compress.LIBRARY_FAMILY, _compress.LIBRARY_VERSION,
            _compress.FUNCTION_SIGNATURE,
        ),
        input_parser=BytesParser(),
        result_parser=BytesParser(),
        func=_compress.deflate,
    )


def pattern_case_study(rules: list[Rule]) -> CaseStudy:
    """Case 3: packet scanning via libpcre over a compiled ruleset.

    The ruleset fingerprint is folded into the description's version so
    results never leak across different rule databases.
    """
    scan, version = _pattern.make_scan_function(rules)
    library = TrustedLibrary(_pattern.LIBRARY_FAMILY, version)
    # The paper's libpcre loop tries every rule on every payload byte.
    library.add(_pattern.FUNCTION_SIGNATURE, scan,
                lambda payload: SCAN_SECONDS_PER_BYTE_RULE * len(payload) * len(rules))
    return CaseStudy(
        name="pattern-matching",
        library=library,
        description=FunctionDescription(
            _pattern.LIBRARY_FAMILY, version, _pattern.FUNCTION_SIGNATURE
        ),
        input_parser=BytesParser(),
        result_parser=ListParser(IntParser()),
        func=scan,
    )


def bow_case_study() -> CaseStudy:
    """Case 4: bag-of-words via the MapReduce framework."""
    library = TrustedLibrary(_mapreduce.LIBRARY_FAMILY, _mapreduce.LIBRARY_VERSION)
    library.add(_mapreduce.FUNCTION_SIGNATURE, _mapreduce.bag_of_words,
                lambda text: BOW_SECONDS_PER_BYTE * len(text.encode()))
    return CaseStudy(
        name="bow-computation",
        library=library,
        description=FunctionDescription(
            _mapreduce.LIBRARY_FAMILY, _mapreduce.LIBRARY_VERSION,
            _mapreduce.FUNCTION_SIGNATURE,
        ),
        input_parser=TextParser(),
        result_parser=MappingParser(IntParser()),
        func=_mapreduce.bag_of_words,
    )
