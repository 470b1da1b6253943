"""Function descriptions and trusted-library identity (paper §IV-B).

DedupRuntime does not hash raw executable bytes — "the same code may be
compiled into different executable files in different compilation
environment".  Instead the developer supplies a *description* of a marked
function — library family, version number, function signature — e.g.
``("zlib", "1.2.11", "int deflate(...)")``.  The runtime then "verif[ies]
that the application indeed owns the actual code of the function by
scanning the underlying trusted library, and derive[s] a universally
unique value for function identification".

Our Python rendering: a :class:`TrustedLibrary` groups the ported
functions of one library; the registry checks a description against the
libraries linked into the application enclave and derives the function
identity from the description plus a fingerprint of the actual code
object — so two applications that link the same library version derive
the same identity, while an application that merely *claims* the
description without the code cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import CodeType
from typing import Callable

from ..crypto.hashes import tagged_hash
from ..errors import DedupError


@dataclass(frozen=True)
class FunctionDescription:
    """What the developer writes to mark a function (Fig. 4)."""

    family: str      # e.g. "zlib"
    version: str     # e.g. "1.2.11"
    signature: str   # e.g. "int deflate(...)"

    def canonical_bytes(self) -> bytes:
        return tagged_hash(
            b"speed/func-desc",
            self.family.encode(),
            self.version.encode(),
            self.signature.encode(),
        )

    def __str__(self) -> str:
        return f'("{self.family}", "{self.version}", {self.signature})'


def _const_fingerprint(const) -> bytes:
    """One constant's contribution to a code fingerprint.

    Nested code objects (genexprs, lambdas, inner defs) must recurse:
    their ``repr`` embeds the object's memory address, which would make
    the fingerprint — and therefore every tag derived from it — vary
    per process under ASLR.
    """
    if isinstance(const, CodeType):
        return _code_object_fingerprint(const)
    return tagged_hash(b"speed/code-fp/const", repr(const).encode())


def _code_object_fingerprint(code: CodeType) -> bytes:
    return tagged_hash(
        b"speed/code-fp/code",
        code.co_code,
        str(code.co_argcount).encode(),
        *(_const_fingerprint(c) for c in code.co_consts),
    )


def code_fingerprint(func: Callable) -> bytes:
    """Fingerprint the actual code of a trusted-library function.

    Python's analogue of scanning the trusted library's text: the
    bytecode and constants of the function object, recursing into
    nested code objects.  Identical source at the same interpreter
    version fingerprints identically across applications — and across
    processes — which is what cross-application deduplication needs.
    """
    code = getattr(func, "__code__", None)
    if code is None:
        # Builtins / callables without code objects: identity by qualified name.
        name = getattr(func, "__qualname__", repr(func))
        return tagged_hash(b"speed/code-fp/builtin", name.encode())
    return tagged_hash(b"speed/code-fp", _code_object_fingerprint(code))


@dataclass
class TrustedLibrary:
    """One ported ("properly ported, at the applications", §IV-B fn. 2)
    trusted library linked into an application enclave."""

    family: str
    version: str
    functions: dict[str, Callable] = field(default_factory=dict)
    #: signature -> ``native_cost(*args) -> seconds``: what one call of
    #: the function costs on the paper's platform, charged to the virtual
    #: clock as compute.  Not part of the code identity.
    costs: dict[str, Callable[..., float]] = field(default_factory=dict)

    def add(
        self, signature: str, func: Callable,
        native_cost: Callable[..., float] | None = None,
    ) -> "TrustedLibrary":
        """Link ``func`` under ``signature``.  ``native_cost`` receives
        the arguments ``func`` receives; without one a call charges no
        compute."""
        if signature in self.functions:
            raise DedupError(f"duplicate signature {signature!r} in {self.family}")
        self.functions[signature] = func
        if native_cost is not None:
            self.costs[signature] = native_cost
        return self

    def code_identity(self) -> bytes:
        """Contribution of this library to the enclave measurement."""
        parts = [self.family.encode(), self.version.encode()]
        for signature in sorted(self.functions):
            parts.append(signature.encode())
            parts.append(code_fingerprint(self.functions[signature]))
        return tagged_hash(b"speed/lib-identity", *parts)


def _no_cost(*args) -> float:
    return 0.0


class TrustedLibraryRegistry:
    """The set of trusted libraries available inside one application."""

    def __init__(self):
        self._libraries: dict[tuple[str, str], TrustedLibrary] = {}
        self._identities: dict[tuple, bytes] = {}  # see function_identity

    def register(self, library: TrustedLibrary) -> None:
        key = (library.family, library.version)
        if key in self._libraries:
            raise DedupError(f"library {key} already registered")
        self._libraries[key] = library

    def _library(self, description: FunctionDescription) -> TrustedLibrary:
        library = self._libraries.get((description.family, description.version))
        if library is None:
            raise DedupError(
                f"application does not link trusted library "
                f"{description.family} {description.version}"
            )
        return library

    def lookup(self, description: FunctionDescription) -> Callable:
        """Return the actual function for a description, or raise."""
        func = self._library(description).functions.get(description.signature)
        if func is None:
            raise DedupError(
                f"trusted library {description.family} {description.version} "
                f"has no function {description.signature!r}"
            )
        return func

    def native_cost(self, description: FunctionDescription) -> Callable[..., float]:
        """The cost the function declared when it was linked; one that
        declared none charges no compute."""
        return self._library(description).costs.get(description.signature, _no_cost)

    def function_identity(self, description: FunctionDescription) -> bytes:
        """The "universally unique value for function identification":
        description plus fingerprint of the code the app actually owns,
        memoised per (description, function, ``__code__``)."""
        func = self.lookup(description)
        key = (description, func, getattr(func, "__code__", None))
        identity = self._identities.get(key)
        if identity is None:
            identity = self._identities[key] = tagged_hash(
                b"speed/func-identity",
                description.canonical_bytes(),
                code_fingerprint(func),
            )
        return identity

    def code_identity(self) -> bytes:
        """Aggregate identity of all linked libraries, fed into the
        application enclave's measurement."""
        parts = [
            self._libraries[key].code_identity() for key in sorted(self._libraries)
        ]
        return tagged_hash(b"speed/app-libs", *parts)

    def libraries(self) -> list[TrustedLibrary]:
        return list(self._libraries.values())
