"""Result-protection schemes: the paper's §III-B and §III-C designs.

Two schemes share one interface:

* :class:`SingleKeyScheme` — the basic design (§III-B): one system-wide
  AES-GCM key shared by all participating applications.  Simple, but "a
  single point of compromise".
* :class:`CrossAppScheme` — the main design (§III-C, Algorithms 1 & 2):
  per-result random keys wrapped with the computation-locked one-time pad
  ``h = Hash(func, m, r)``, where the challenge ``r`` is chosen at the
  initial computation and kept by the ResultStore.  No shared key; only
  an application that owns both the function code and the input can
  unwrap.

Both seal the result with AES-GCM-128 and bind the ciphertext to the tag
via the AEAD associated data, which is what defeats cache poisoning: a
ciphertext moved or forged under a different tag fails authentication.

Each of ``protect`` / ``recover`` is a per-item half (``prepare_*``:
draws, locking hash, clock charges) and the AEAD (:func:`seal_all` /
:func:`open_all`), which takes any number of items in one pass: a batch's
one-shot result keys share one AES batch and one GHASH.  No ``key``
means no AEAD (the plaintext baseline).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .tag import derive_locking_hash
from ..crypto import gcm
from ..crypto.hashes import DIGEST_SIZE
from ..errors import CryptoError, IntegrityError
from ..sgx.cost_model import SimClock

KEY_SIZE = 16
IV_SIZE = 12
CHALLENGE_SIZE = 32


@dataclass(frozen=True)
class ProtectedResult:
    """What travels to the ResultStore: ``(r, [k], [res])``."""

    challenge: bytes      # r   (empty for the single-key scheme)
    wrapped_key: bytes    # [k] (empty for the single-key scheme)
    sealed_result: bytes  # [res] = iv || gcm tag || ciphertext


class Sealing(NamedTuple):
    """A result before its AEAD, ``gcm.seal(key, iv, plaintext, aad)``."""

    challenge: bytes
    wrapped_key: bytes
    key: bytes | None
    iv: bytes
    plaintext: bytes
    aad: bytes


class Opening(NamedTuple):
    """A stored result before its AEAD, ``gcm.open_(key, sealed, aad)``."""

    key: bytes | None
    sealed: bytes
    aad: bytes


def seal_all(sealings: Sequence[Sealing]) -> list[ProtectedResult]:
    """Complete ``sealings``, every AEAD in one :func:`~repro.crypto.gcm.seal_many`."""
    blobs = iter(gcm.seal_many([s[2:] for s in sealings if s.key is not None]))
    return [
        ProtectedResult(s.challenge, s.wrapped_key, s.plaintext if s.key is None else next(blobs))
        for s in sealings
    ]


def open_all(openings: Sequence[Opening]) -> list:
    """Per opening its plaintext, or the :class:`~repro.errors.IntegrityError`
    that rejected it; every AEAD in one :func:`~repro.crypto.gcm.open_many`."""
    plains = iter(gcm.open_many([o for o in openings if o.key is not None]))
    return [o.sealed if o.key is None else next(plains) for o in openings]


class ResultScheme(abc.ABC):
    """Common interface over the two result-protection designs."""

    name: str = "abstract"

    @abc.abstractmethod
    def prepare_protect(
        self, func_identity: bytes, input_bytes: bytes, tag: bytes, result_bytes: bytes,
        rand, clock: SimClock | None = None,
    ) -> Sealing:
        """:meth:`protect` but the AEAD: every draw and clock charge, in order."""

    @abc.abstractmethod
    def prepare_recover(
        self, func_identity: bytes, input_bytes: bytes, tag: bytes,
        protected: ProtectedResult, clock: SimClock | None = None,
    ) -> Opening:
        """:meth:`recover` but the AEAD: shape checks (raising
        :class:`~repro.errors.CryptoError`), key recovery, clock charges."""

    def protect(self, func_identity, input_bytes, tag, result_bytes, rand, clock=None):
        """Encrypt a freshly computed result (Algorithm 1, lines 5-9)."""
        return seal_all([self.prepare_protect(
            func_identity, input_bytes, tag, result_bytes, rand, clock
        )])[0]

    def recover(self, func_identity, input_bytes, tag, protected, clock=None) -> bytes:
        """Recover a stored result (Algorithm 2, lines 4-6); raises
        :class:`~repro.errors.IntegrityError` if the caller does not own
        the computation or the ciphertext was tampered with."""
        (result,) = open_all([
            self.prepare_recover(func_identity, input_bytes, tag, protected, clock)
        ])
        if isinstance(result, IntegrityError):
            raise result
        return result


def _xor16(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(KEY_SIZE, "big")


class CrossAppScheme(ResultScheme):
    """The paper's main design (§III-C): RCE locked to the computation."""

    name = "cross-app"
    # Bound here as well as inherited: the end-to-end benchmark's tracer
    # (benchmarks/e2e/tracing.py) wraps these two by class attribute.
    protect = ResultScheme.protect
    recover = ResultScheme.recover

    def prepare_protect(self, func_identity, input_bytes, tag, result_bytes, rand, clock=None):
        challenge = rand(CHALLENGE_SIZE)                       # line 5: r
        locking = derive_locking_hash(func_identity, input_bytes, challenge, clock)  # line 6: h
        if clock is not None:
            clock.charge_keygen()
        key = rand(KEY_SIZE)                                   # line 7: k ← KeyGen
        iv = rand(IV_SIZE)
        if clock is not None:
            clock.charge_aead_encrypt(len(result_bytes))
        wrapped = _xor16(key, locking[:KEY_SIZE])              # line 9: [k] = k ⊕ h
        return Sealing(challenge, wrapped, key, iv, result_bytes, tag)  # line 8: [res]

    def prepare_recover(self, func_identity, input_bytes, tag, protected, clock=None):
        if len(protected.challenge) != CHALLENGE_SIZE:
            raise CryptoError("malformed challenge")
        if len(protected.wrapped_key) != KEY_SIZE:
            raise CryptoError("malformed wrapped key")
        locking = derive_locking_hash(func_identity, input_bytes, protected.challenge, clock)
        key = _xor16(protected.wrapped_key, locking[:KEY_SIZE])  # line 5: k = [k] ⊕ h
        if clock is not None:
            clock.charge_aead_decrypt(len(protected.sealed_result))
        return Opening(key, protected.sealed_result, tag)        # line 6, ⊥ → raise


class SingleKeyScheme(ResultScheme):
    """The basic design (§III-B): one shared system-wide key."""

    name = "single-key"

    def __init__(self, system_key: bytes):
        if len(system_key) != KEY_SIZE:
            raise CryptoError(f"system key must be {KEY_SIZE} bytes")
        self._key = system_key

    def prepare_protect(self, func_identity, input_bytes, tag, result_bytes, rand, clock=None):
        iv = rand(IV_SIZE)
        if clock is not None:
            clock.charge_aead_encrypt(len(result_bytes))
        return Sealing(b"", b"", self._key, iv, result_bytes, tag)

    def prepare_recover(self, func_identity, input_bytes, tag, protected, clock=None):
        if clock is not None:
            clock.charge_aead_decrypt(len(protected.sealed_result))
        return Opening(self._key, protected.sealed_result, tag)


__all__ = [
    "CHALLENGE_SIZE",
    "CrossAppScheme",
    "IV_SIZE",
    "KEY_SIZE",
    "Opening",
    "ProtectedResult",
    "ResultScheme",
    "Sealing",
    "SingleKeyScheme",
    "open_all",
    "seal_all",
]

# Re-exported for tests that need to assert digest sizes line up.
assert DIGEST_SIZE >= KEY_SIZE
