"""Approximate computation deduplication (opt-in extension).

The paper's related work (§I, [22]-[24]: Potluck, Doppelgänger, LUT
allocation) extends computation deduplication to *error-resilient*
applications: "share the common processing results when facing highly-
correlated (or similar) input data".  This module brings that idea into
SPEED's security framework.

Mechanism
---------
Inputs are mapped to a 64-bit **SimHash** fingerprint over shingled
features; the fingerprint is cut into ``bands`` (classic LSH banding).
Two inputs that are similar enough agree on at least one band with high
probability.  Each band value yields its own dedup tag and its own
key-locking value, so the stored result can be recovered by *any*
application that owns the function and an input falling in the same
band:

    tag_i     = Hash(func, "band", i, band_value_i)
    locking_i = Hash(func, "band", i, band_value_i, r)

Security trade-off (read before using)
--------------------------------------
Exact SPEED locks results to the full input; this extension locks them
to a band value — a *coarser* secret.  That is precisely what makes
similar-input reuse possible, and it is also a weaker guarantee: an
adversary no longer needs the exact input, only one that collides in a
band, and band values have far less entropy than inputs.  Use only for
computations whose results are not sensitive beyond the input class
(the error-resilient multimedia/mining workloads of [22]-[24]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .scheme import CrossAppScheme, ProtectedResult
from .serialization import AnyParser, Parser
from .verification import verify_and_recover
from ..crypto.hashes import tagged_hash
from ..errors import DedupError
from ..net.messages import GetRequest, GetResponse, PutRequest
from ..sgx.cost_model import SimClock

FINGERPRINT_BITS = 64


def shingle_features(data: bytes, k: int = 4, stride: int = 1) -> list[bytes]:
    """Overlapping k-byte shingles — the default feature extractor."""
    if k <= 0:
        raise DedupError("shingle size must be positive")
    if len(data) < k:
        return [data] if data else []
    return [data[i:i + k] for i in range(0, len(data) - k + 1, stride)]


def simhash64(features: list[bytes]) -> int:
    """Charikar's SimHash: similar feature multisets give fingerprints
    with small Hamming distance."""
    if not features:
        return 0
    counters = [0] * FINGERPRINT_BITS
    for feature in features:
        h = int.from_bytes(tagged_hash(b"approx/feature", feature)[:8], "big")
        for bit in range(FINGERPRINT_BITS):
            if (h >> bit) & 1:
                counters[bit] += 1
            else:
                counters[bit] -= 1
    fingerprint = 0
    for bit in range(FINGERPRINT_BITS):
        if counters[bit] > 0:
            fingerprint |= 1 << bit
    return fingerprint


def hamming_distance(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def band_values(fingerprint: int, bands: int) -> list[int]:
    """Split a fingerprint into ``bands`` equal bit slices."""
    if bands <= 0 or FINGERPRINT_BITS % bands:
        raise DedupError(f"bands must divide {FINGERPRINT_BITS}")
    width = FINGERPRINT_BITS // bands
    mask = (1 << width) - 1
    return [(fingerprint >> (i * width)) & mask for i in range(bands)]


@dataclass
class ApproximateStats:
    calls: int = 0
    exact_band_hits: int = 0
    misses: int = 0
    verification_failures: int = 0


@dataclass
class ApproximateDeduplicable:
    """A similarity-deduplicated version of one error-resilient function.

    Built on the application's existing DedupRuntime plumbing (same
    enclave, same store client, same RCE-based scheme); only the tag and
    key-locking derivation differ, as described in the module docstring.
    """

    runtime: "Any"                     # DedupRuntime
    description: "Any"                 # FunctionDescription
    feature_extractor: Callable[[bytes], list[bytes]] = shingle_features
    bands: int = 4
    input_parser: Parser | None = None
    result_parser: Parser | None = None
    scheme: CrossAppScheme = field(default_factory=CrossAppScheme)
    stats: ApproximateStats = field(default_factory=ApproximateStats)

    def _band_identity(self, func_identity: bytes, index: int, value: int) -> bytes:
        return tagged_hash(
            b"approx/band-identity",
            func_identity,
            index.to_bytes(2, "big"),
            value.to_bytes(8, "big"),
        )

    def __call__(self, *args: Any) -> Any:
        if len(args) != 1:
            raise DedupError("approximate dedup supports single-argument functions")
        input_value = args[0]
        runtime = self.runtime
        clock: SimClock = runtime.clock
        input_parser = self.input_parser or AnyParser(runtime.parsers)
        result_parser = self.result_parser or AnyParser(runtime.parsers)
        self.stats.calls += 1

        with runtime.enclave.ecall("approx_execute"):
            func = runtime.libraries.lookup(self.description)
            native_cost = runtime.libraries.native_cost(self.description)
            func_identity = runtime.libraries.function_identity(self.description)
            input_bytes = input_parser.encode(input_value)
            clock.charge_hash(len(input_bytes))  # fingerprinting pass
            fingerprint = simhash64(self.feature_extractor(input_bytes))
            values = band_values(fingerprint, self.bands)

            # Probe every band; first verifiable hit wins.
            for index, value in enumerate(values):
                band_id = self._band_identity(func_identity, index, value)
                tag = tagged_hash(b"approx/tag", band_id)
                clock.charge_hash(len(band_id))
                with runtime.enclave.ocall("approx_get", in_bytes=len(tag)):
                    response = runtime.client.call(
                        GetRequest(tag=tag, app_id=runtime.config.app_id)
                    )
                if not isinstance(response, GetResponse) or not response.found:
                    continue
                outcome = verify_and_recover(
                    self.scheme, band_id, band_id, tag,
                    ProtectedResult(
                        challenge=response.challenge,
                        wrapped_key=response.wrapped_key,
                        sealed_result=response.sealed_result,
                    ),
                    clock,
                )
                if outcome.ok:
                    self.stats.exact_band_hits += 1
                    return result_parser.decode(outcome.result_bytes)
                self.stats.verification_failures += 1

            # Miss on all bands: compute and publish under every band.
            self.stats.misses += 1
            result_value = func(input_value)
            clock.charge_compute(native_cost(input_value))
            result_bytes = result_parser.encode(result_value)
            for index, value in enumerate(values):
                band_id = self._band_identity(func_identity, index, value)
                tag = tagged_hash(b"approx/tag", band_id)
                protected = self.scheme.protect(
                    band_id, band_id, tag, result_bytes,
                    rand=runtime.enclave.read_rand, clock=clock,
                )
                with runtime.enclave.ocall("approx_put"):
                    runtime.client.send_oneway(PutRequest(
                        tag=tag,
                        challenge=protected.challenge,
                        wrapped_key=protected.wrapped_key,
                        sealed_result=protected.sealed_result,
                        app_id=runtime.config.app_id,
                    ))
        runtime.client.drain_responses()
        return result_value
