"""End-to-end runs of all four paper case studies through SPEED."""

import numpy as np
import pytest

from repro.apps.compress import inflate
from repro.apps.registry import (
    bow_case_study,
    compress_case_study,
    pattern_case_study,
    sift_case_study,
)
from repro.core.description import TrustedLibraryRegistry
from repro.deployment import Deployment
from repro.workloads import (
    generate_rules,
    packet_trace,
    synthetic_image,
    synthetic_text,
    synthetic_webpage,
)


def run_case(case, inputs, seed=b"case-e2e"):
    """First app computes everything; second app must hit everything."""
    deployment = Deployment(seed=seed)
    libs1, libs2 = TrustedLibraryRegistry(), TrustedLibraryRegistry()
    case.register_into(libs1)
    case.register_into(libs2)
    app1 = deployment.create_application("producer", libs1)
    app2 = deployment.create_application("consumer", libs2)
    d1, d2 = case.deduplicable(app1), case.deduplicable(app2)
    outputs1 = [d1(x) for x in inputs]
    app1.runtime.flush_puts()
    outputs2 = [d2(x) for x in inputs]
    assert app1.runtime.stats.hits == 0
    assert app2.runtime.stats.hits == len(inputs)
    return outputs1, outputs2, deployment


class TestSiftCase:
    def test_cross_app_reuse(self):
        images = [synthetic_image(64, seed=i) for i in range(3)]
        out1, out2, _ = run_case(sift_case_study(), images)
        for a, b, img in zip(out1, out2, images):
            assert np.array_equal(a, b)
            assert a.shape[1] == 132


class TestCompressCase:
    def test_cross_app_reuse(self):
        texts = [synthetic_text(4096, seed=i) for i in range(3)]
        out1, out2, _ = run_case(compress_case_study(), texts)
        for compressed1, compressed2, text in zip(out1, out2, texts):
            assert compressed1 == compressed2
            assert inflate(compressed1) == text


class TestPatternCase:
    def test_cross_app_reuse(self):
        rules = generate_rules(120, seed=1)
        packets = packet_trace(5, duplicate_fraction=0.0,
                               malicious_fraction=0.5, seed=2)
        out1, out2, _ = run_case(pattern_case_study(rules), packets)
        assert out1 == out2
        assert any(out1)  # at least one packet triggers a planted rule

    def test_different_rulesets_do_not_share(self):
        deployment = Deployment(seed=b"rulesets")
        case_a = pattern_case_study(generate_rules(50, seed=1))
        case_b = pattern_case_study(generate_rules(50, seed=2))
        libs_a, libs_b = TrustedLibraryRegistry(), TrustedLibraryRegistry()
        case_a.register_into(libs_a)
        case_b.register_into(libs_b)
        app_a = deployment.create_application("ids-a", libs_a)
        app_b = deployment.create_application("ids-b", libs_b)
        packet = packet_trace(1, seed=3)[0]
        case_a.deduplicable(app_a)(packet)
        app_a.runtime.flush_puts()
        case_b.deduplicable(app_b)(packet)
        assert app_b.runtime.stats.hits == 0  # different ruleset, no reuse


class TestBowCase:
    def test_cross_app_reuse(self):
        pages = [synthetic_webpage(150, seed=i) for i in range(3)]
        out1, out2, _ = run_case(bow_case_study(), pages)
        assert out1 == out2
        assert all(isinstance(bow, dict) and bow for bow in out1)


class TestMixedWorkload:
    def test_two_case_studies_share_one_store(self):
        deployment = Deployment(seed=b"mixed")
        sift_case = sift_case_study()
        compress_case = compress_case_study()
        libs = TrustedLibraryRegistry()
        sift_case.register_into(libs)
        compress_case.register_into(libs)
        app = deployment.create_application("multi-tool", libs)
        d_sift = sift_case.deduplicable(app)
        d_deflate = compress_case.deduplicable(app)
        image = synthetic_image(64, seed=1)
        text = synthetic_text(2048, seed=1)
        f1 = d_sift(image)
        c1 = d_deflate(text)
        app.runtime.flush_puts()
        assert np.array_equal(d_sift(image), f1)
        assert d_deflate(text) == c1
        assert app.runtime.stats.hits == 2
        assert len(deployment.store) == 2
