"""Adversary simulations for the paper's §III-D security analysis.

The threat model (§II-B): the adversary controls the full software stack
outside the enclaves — it can read/modify everything the host holds
(:class:`HostAdversary`), observe the wire, and run its own
(non-attested) code — but cannot break the simulated hardware.  Each
class below mounts one of the attacks the paper claims to defeat; the
security test suite asserts every mount fails, and that the
corresponding *relaxations* (e.g. UNIC's plaintext store) do fall.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.scheme import CrossAppScheme, ProtectedResult
from ..core.tag import derive_locking_hash
from ..crypto import gcm
from ..errors import IntegrityError


@dataclass
class WireObservation:
    """What a network-tapping adversary collects: opaque records only."""

    total_messages: int = 0
    total_bytes: int = 0
    plaintext_sightings: int = 0  # times a known plaintext appeared on the wire


class WireTapAdversary:
    """Honest-but-curious observer of all traffic (attach via Network.add_tap).

    Records whether any of the secrets it knows to look for (function
    identities, inputs, results) ever appear in the clear.
    """

    def __init__(self, known_secrets: list[bytes]):
        self._secrets = [s for s in known_secrets if len(s) >= 8]
        self.observation = WireObservation()

    def __call__(self, source: str, dest: str, payload: bytes) -> None:
        self.observation.total_messages += 1
        self.observation.total_bytes += len(payload)
        for secret in self._secrets:
            if secret in payload:
                self.observation.plaintext_sightings += 1


@dataclass
class ForgingAttempt:
    guesses_tried: int
    succeeded: bool
    recovered: bytes = b""


class QueryForgingAdversary:
    """The query-forging attack of UNIC's threat discussion (§III-D):
    armed with a *leaked tag* and everything the store returns —
    ``(r, [k], [res])`` — try to decrypt without owning ``(func, m)``.

    ``guesses`` is the adversary's dictionary of candidate
    ``(func_identity, input_bytes)`` pairs.  The paper's claim: the
    attack succeeds only if the true pair is in the dictionary (i.e. the
    adversary could have performed the computation anyway).
    """

    def __init__(self, scheme: CrossAppScheme | None = None):
        self._scheme = scheme or CrossAppScheme()

    def attack(
        self, tag: bytes, stolen: ProtectedResult, guesses: list[tuple[bytes, bytes]]
    ) -> ForgingAttempt:
        for attempt, (func_identity, input_bytes) in enumerate(guesses, start=1):
            try:
                recovered = self._scheme.recover(func_identity, input_bytes, tag, stolen)
            except Exception:
                continue
            return ForgingAttempt(guesses_tried=attempt, succeeded=True, recovered=recovered)
        return ForgingAttempt(guesses_tried=len(guesses), succeeded=False)


class HostAdversary:
    """The root-level adversary at one machine's host storage: it rewrites,
    cuts, deletes, exchanges and rolls back the bytes behind any name —
    result arena (§III-D "poison ResultStore"), WAL, checkpoint, snapshot."""

    def __init__(self, host):
        self.host = host

    def flip(self, name: str, offset: int = 0, xor: int = 0xFF) -> None:
        """Flip bits of one held byte (a negative offset counts from the end)."""
        data = bytearray(self._held(name))
        if not -len(data) <= offset < len(data):
            raise ValueError(f"offset {offset} outside {name!r}")
        data[offset] ^= xor
        self.host.put(name, bytes(data))

    def truncate(self, name: str, length: int) -> None:
        """Keep only the first ``length`` bytes (a torn write)."""
        self.host.put(name, self._held(name)[:length])

    def delete(self, name: str) -> None:
        if self.host.delete(name) is None:
            raise KeyError(f"the host holds no {name!r}")

    def exchange(self, first: str, second: str) -> None:
        """Swap the bytes two names hold."""
        a, b = self._held(first), self._held(second)
        self.host.put(first, b)
        self.host.put(second, a)

    def save(self, prefix: str = "") -> dict[str, bytes]:
        """A copy of every name under ``prefix``, to put back later."""
        return {name: self._held(name) for name in self.host.names(prefix)}

    def put_back(self, saved: dict[str, bytes], prefix: str | None = None) -> None:
        """Present stale copies; with ``prefix``, first delete every name
        under it, so the whole prefix rolls back to ``saved``."""
        if prefix is not None:
            for name in self.host.names(prefix):
                self.host.delete(name)
        for name, data in saved.items():
            self.host.put(name, data)

    def _held(self, name: str) -> bytes:
        data = self.host.get(name)
        if data is None:
            raise KeyError(f"the host holds no {name!r}")
        return data


class BruteForceAdversary:
    """Offline dictionary attack over *predictable* computations (§III-D).

    Given the store's at-rest state for one entry, enumerate candidate
    inputs.  Two scenarios:

    * ``r`` protected inside the store enclave (the deployed system):
      the adversary has only ``[res]`` — without ``r`` it cannot even
      form the locking hash, so the attack cannot start.  Modelled by
      :meth:`attack_without_challenge`.
    * ``r`` additionally leaked (a stronger-than-threat-model leak):
      the attack degrades to guessing the input dictionary, succeeding
      exactly when the computation was predictable — the inherent MLE
      bound the paper cites from [25].  Modelled by
      :meth:`attack_with_challenge`.
    """

    def __init__(self, func_identity: bytes):
        self._func_identity = func_identity

    def attack_without_challenge(
        self, tag: bytes, sealed_result: bytes, candidate_inputs: list[bytes]
    ) -> ForgingAttempt:
        """No ``r``: the adversary must guess the 16-byte key itself; we
        model a dictionary-sized effort of random key guesses."""
        for attempt, candidate in enumerate(candidate_inputs, start=1):
            # Best available move: treat the candidate bytes as key material.
            fake_key = (candidate * 16)[:16] if candidate else b"\x00" * 16
            try:
                recovered = gcm.open_(fake_key, sealed_result, aad=tag)
            except Exception:
                continue
            return ForgingAttempt(attempt, True, recovered)
        return ForgingAttempt(len(candidate_inputs), False)

    def attack_with_challenge(
        self, tag: bytes, protected: ProtectedResult, candidate_inputs: list[bytes]
    ) -> ForgingAttempt:
        """With leaked ``r``: classic MLE dictionary attack."""
        for attempt, candidate in enumerate(candidate_inputs, start=1):
            locking = derive_locking_hash(self._func_identity, candidate, protected.challenge)
            key = bytes(a ^ b for a, b in zip(protected.wrapped_key, locking[:16]))
            try:
                recovered = gcm.open_(key, protected.sealed_result, aad=tag)
            except IntegrityError:
                continue
            return ForgingAttempt(attempt, True, recovered)
        return ForgingAttempt(len(candidate_inputs), False)
