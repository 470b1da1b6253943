"""Approximate (similarity) deduplication extension."""

import pytest

from repro import FunctionDescription, TrustedLibrary, TrustedLibraryRegistry
from repro.core.approximate import (
    ApproximateDeduplicable,
    band_values,
    hamming_distance,
    shingle_features,
    simhash64,
)
from repro.deployment import Deployment
from repro.errors import DedupError
from repro.workloads import synthetic_text


def word_count(data: bytes) -> int:
    return len(data.split())


def make_app(deployment):
    libs = TrustedLibraryRegistry()
    libs.register(TrustedLibrary("nlplib", "1.0").add("int word_count(bytes)", word_count))
    return deployment.create_application("approx-app", libs)


DESC = FunctionDescription("nlplib", "1.0", "int word_count(bytes)")


def perturb(data: bytes, edits: int, seed: int = 1) -> bytes:
    """Apply a few byte substitutions — a 'similar' input."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out = bytearray(data)
    for _ in range(edits):
        out[int(rng.integers(0, len(out)))] = ord("x")
    return bytes(out)


class TestSimHash:
    def test_identical_inputs_identical_fingerprints(self):
        f = shingle_features(b"the quick brown fox jumps over everything")
        assert simhash64(f) == simhash64(list(f))

    def test_similar_inputs_close_fingerprints(self):
        base = synthetic_text(4096, seed=3)
        similar = perturb(base, edits=8)
        different = synthetic_text(4096, seed=99)
        d_similar = hamming_distance(
            simhash64(shingle_features(base)), simhash64(shingle_features(similar))
        )
        d_different = hamming_distance(
            simhash64(shingle_features(base)), simhash64(shingle_features(different))
        )
        assert d_similar < d_different
        assert d_similar <= 8

    def test_empty_input(self):
        assert simhash64([]) == 0
        assert shingle_features(b"") == []

    def test_short_input_single_feature(self):
        assert shingle_features(b"ab", k=4) == [b"ab"]

    def test_band_split_covers_fingerprint(self):
        fingerprint = 0x0123456789ABCDEF
        bands = band_values(fingerprint, 4)
        rebuilt = 0
        for i, value in enumerate(bands):
            rebuilt |= value << (i * 16)
        assert rebuilt == fingerprint

    def test_invalid_bands(self):
        with pytest.raises(DedupError):
            band_values(0, 7)

    def test_invalid_shingle_size(self):
        with pytest.raises(DedupError):
            shingle_features(b"abc", k=0)


class TestApproximateDedup:
    def test_identical_input_hits(self, deployment):
        app = make_app(deployment)
        approx = ApproximateDeduplicable(app.runtime, DESC)
        base = synthetic_text(2048, seed=5)
        first = approx(base)
        second = approx(base)
        assert first == second == word_count(base)
        assert approx.stats.exact_band_hits == 1

    def test_similar_input_reuses_result(self, deployment):
        app = make_app(deployment)
        approx = ApproximateDeduplicable(app.runtime, DESC)
        base = synthetic_text(4096, seed=6)
        similar = perturb(base, edits=4)
        exact = approx(base)
        reused = approx(similar)
        # The reused result is the *base* input's result — approximate by
        # construction, close for an error-resilient metric.
        assert approx.stats.exact_band_hits == 1
        assert abs(reused - word_count(similar)) <= 8
        assert reused == exact

    def test_dissimilar_input_misses(self, deployment):
        app = make_app(deployment)
        approx = ApproximateDeduplicable(app.runtime, DESC)
        approx(synthetic_text(2048, seed=7))
        approx(synthetic_text(2048, seed=777))
        assert approx.stats.misses == 2

    def test_exact_dedup_would_have_missed(self, deployment):
        # The motivating comparison: exact SPEED misses on the perturbed
        # input, the approximate extension hits.
        app = make_app(deployment)
        exact = app.deduplicable(DESC)
        approx = ApproximateDeduplicable(app.runtime, DESC)
        base = synthetic_text(4096, seed=8)
        similar = perturb(base, edits=4)

        exact(base)
        app.runtime.flush_puts()
        exact(similar)
        assert app.runtime.stats.hits == 0  # exact: miss

        approx(base)
        approx(similar)
        assert approx.stats.exact_band_hits == 1  # approximate: hit

    def test_cross_application_similarity_sharing(self, deployment):
        app_a = make_app(deployment)
        libs = TrustedLibraryRegistry()
        libs.register(TrustedLibrary("nlplib", "1.0").add("int word_count(bytes)", word_count))
        app_b = deployment.create_application("approx-b", libs)
        a = ApproximateDeduplicable(app_a.runtime, DESC)
        b = ApproximateDeduplicable(app_b.runtime, DESC)
        base = synthetic_text(4096, seed=9)
        a(base)
        b(perturb(base, edits=3, seed=2))
        assert b.stats.exact_band_hits == 1

    def test_multi_arg_rejected(self, deployment):
        app = make_app(deployment)
        approx = ApproximateDeduplicable(app.runtime, DESC)
        with pytest.raises(DedupError):
            approx(b"a", b"b")
