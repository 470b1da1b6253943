"""Decorator front end for marking self-defined functions.

The paper's API wraps functions from ported trusted libraries; footnote
3 notes that support for plain C functions (function pointers) is future
work.  The Python analogue of that convenience is a decorator: mark "a
self-defined but reusable function within a single application" (§III-A)
without hand-writing a TrustedLibrary::

    app = deployment.create_application("svc", libs)
    mark = deduplicable_marker(app)

    @mark(version="1.0", native_cost=lambda data: 2e-9 * len(data))
    def normalize(data: bytes) -> bytes:
        ...

    normalize(payload)          # deduplicated call, as normal
    normalize.original(payload) # the unwrapped function, if ever needed

Each decorated function is registered into a per-application synthetic
trusted library (family ``"app:<name>"``), so all the identity and
cross-application sharing machinery applies unchanged: two applications
decorating byte-identical functions with the same version share results.
``native_cost`` (optional, same arguments as the function, returning
seconds on the paper's platform) is what a computed call charges the
virtual clock; without it a call charges no compute.
"""

from __future__ import annotations

import functools
from typing import Callable

from .deduplicable import Deduplicable
from .description import FunctionDescription, TrustedLibrary
from .serialization import Parser
from ..deployment import Application

_FAMILY_PREFIX = "app"


def deduplicable_marker(app: Application):
    """Build a decorator factory bound to one application."""

    def mark(
        version: str = "0.0",
        signature: str | None = None,
        input_parser: Parser | None = None,
        result_parser: Parser | None = None,
        native_cost: Callable[..., float] | None = None,
    ) -> Callable[[Callable], Callable]:
        def decorate(func: Callable) -> Callable:
            sig = signature or f"{func.__name__}(...)"
            family = f"{_FAMILY_PREFIX}:{func.__module__}.{func.__qualname__}"
            library = TrustedLibrary(family, version).add(sig, func, native_cost)
            app.runtime.libraries.register(library)
            description = FunctionDescription(family, version, sig)
            dedup = Deduplicable(
                app.runtime, description,
                input_parser=input_parser,
                result_parser=result_parser,
            )

            # The wrapper is a pure shim: every surface (plain call,
            # result-carrying call, batch map) is the Deduplicable's own
            # code path, so decorated and hand-wrapped functions behave
            # identically down to argument marshalling and tags.
            @functools.wraps(func)
            def wrapper(*args):
                return dedup(*args)

            wrapper.original = func
            wrapper.deduplicable = dedup
            wrapper.description = description
            wrapper.call_result = dedup.call_result
            wrapper.map = dedup.map
            wrapper.map_results = dedup.map_results
            return wrapper

        return decorate

    return mark
