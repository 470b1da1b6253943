"""HMAC-DRBG (NIST SP 800-90A) — the deterministic randomness source.

Every randomised component of the reproduction (key generation, the RCE
challenge ``r``, DH private keys, workload generators) draws from an
explicit DRBG instance so that experiments are replayable from a seed.
Inside the simulated enclave this stands in for ``sgx_read_rand``.
"""

from __future__ import annotations

import hmac

from ..errors import CryptoError


class HmacDrbg:
    """HMAC-SHA-256 DRBG without prediction-resistance reseeding.

    The construction follows SP 800-90A section 10.1.2: the internal state
    is ``(K, V)``; ``generate`` chains ``V = HMAC(K, V)`` and re-keys via
    ``update`` after each request.
    """

    MAX_REQUEST = 1 << 16

    def __init__(self, seed: bytes, personalization: bytes = b""):
        if not seed:
            raise CryptoError("HMAC-DRBG requires non-empty seed material")
        self._k = b"\x00" * 32
        self._v = b"\x01" * 32
        self._update(seed + personalization)
        self._reseed_counter = 1

    def _hmac(self, key: bytes, data: bytes) -> bytes:
        return hmac.digest(key, data, "sha256")

    def _update(self, provided: bytes = b"") -> None:
        self._k = self._hmac(self._k, self._v + b"\x00" + provided)
        self._v = self._hmac(self._k, self._v)
        if provided:
            self._k = self._hmac(self._k, self._v + b"\x01" + provided)
            self._v = self._hmac(self._k, self._v)

    def reseed(self, entropy: bytes) -> None:
        """Mix fresh entropy into the state."""
        self._update(entropy)
        self._reseed_counter = 1

    def generate(self, n_bytes: int) -> bytes:
        """Produce ``n_bytes`` of pseudorandom output."""
        if n_bytes < 0:
            raise CryptoError("cannot generate a negative number of bytes")
        if n_bytes > self.MAX_REQUEST:
            raise CryptoError(f"request exceeds MAX_REQUEST ({self.MAX_REQUEST})")
        out = b""
        while len(out) < n_bytes:
            self._v = self._hmac(self._k, self._v)
            out += self._v
        self._update()
        self._reseed_counter += 1
        return out[:n_bytes]

    def randint_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise CryptoError("bound must be positive")
        n_bytes = (bound.bit_length() + 7) // 8
        while True:
            candidate = int.from_bytes(self.generate(n_bytes + 8), "big")
            # 64 extra bits make the modulo bias negligible for simulation use.
            return candidate % bound

    def fork(self, label: bytes) -> "HmacDrbg":
        """Derive an independent child DRBG, e.g. one per enclave."""
        return HmacDrbg(self.generate(32), personalization=label)
