"""The developer-facing API: ``Deduplicable`` (paper §IV-C, Fig. 4).

"The API is centered on a Deduplicable object, which wraps the
interaction with [the] underlying trusted DedupRuntime, conversion
between data formats, and all other intermediate operations. ... To make
a function deduplicable, the developer only needs to create a
Deduplicable version by providing the aforementioned simple description,
and then uses the new version as normal.  This usually requires a change
of only 2 lines of code per function call."

The Python rendering of the paper's C++ template API::

    # line 1: create the Deduplicable version of the function
    dedup_deflate = Deduplicable(runtime, FunctionDescription("zlib", "1.2.11", "bytes deflate(bytes)"))
    # line 2: use it as normal
    compressed = dedup_deflate(data)
"""

from __future__ import annotations

from typing import Any, Sequence

from .description import FunctionDescription
from .runtime import DedupResult, DedupRuntime
from .serialization import AnyParser, Parser, TupleParser


class Deduplicable:
    """A callable, deduplicated version of one trusted-library function.

    Parameters
    ----------
    runtime:
        The application's DedupRuntime.
    description:
        Library family / version / signature identifying the function;
        the runtime verifies the application actually links that code.
    input_parser, result_parser:
        Optional explicit parsers; by default the self-describing
        :class:`~repro.core.serialization.AnyParser` resolves parsers
        from the runtime's registry by value type.

    What a call costs the virtual clock is declared where the function
    is linked (``TrustedLibrary.add(..., native_cost=...)``), not here.
    """

    def __init__(
        self,
        runtime: DedupRuntime,
        description: FunctionDescription,
        input_parser: Parser | None = None,
        result_parser: Parser | None = None,
    ):
        self.runtime = runtime
        self.description = description
        self._input_parser = input_parser
        self._result_parser = result_parser
        # Fail fast at creation time if the app does not own the code.
        with runtime.enclave.ecall("deduplicable_create"):
            runtime.libraries.lookup(description)

    def _resolve_args(self, args: tuple) -> tuple[Any, Parser | None, bool]:
        """Map a ``*args`` call onto (input value, input parser, unpack).

        This is the single argument-marshalling code path shared by
        direct calls, the decorator front end, and the batch entry
        points, so every surface agrees on how multi-argument calls are
        serialized (and therefore on the tags they derive).
        """
        if not args:
            raise TypeError("a deduplicated call needs at least one argument")
        if len(args) == 1:
            return args[0], self._input_parser, False
        if self._input_parser is not None:
            input_parser: Parser = self._input_parser
        else:
            registry = self.runtime.parsers
            input_parser = TupleParser(*(AnyParser(registry) for _ in args))
        return tuple(args), input_parser, True

    def __call__(self, *args: Any) -> Any:
        """Invoke the function with deduplication, "as normal"."""
        return self.call_result(*args).value

    def call_result(self, *args: Any) -> DedupResult:
        """Invoke with deduplication; return the full
        :class:`~repro.core.runtime.DedupResult` (value + hit/source/tag
        + span ids) instead of the bare value."""
        input_value, input_parser, unpack = self._resolve_args(args)
        return self.runtime.execute_result(
            self.description,
            input_value,
            input_parser=input_parser,
            result_parser=self._result_parser,
            unpack_args=unpack,
        )

    def map(self, inputs: Sequence[Any]) -> list[Any]:
        """Run a whole batch of single-argument calls in one enclave
        entry (:meth:`DedupRuntime.execute_many`)."""
        return [r.value for r in self.map_results(inputs)]

    def map_results(self, inputs: Sequence[Any]) -> list[DedupResult]:
        """Batch variant of :meth:`call_result`: one
        :class:`~repro.core.runtime.DedupResult` per input."""
        return self.runtime.execute_many_results(
            self.description,
            list(inputs),
            input_parser=self._input_parser,
            result_parser=self._result_parser,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Deduplicable {self.description}>"
