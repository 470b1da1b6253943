"""SIFT pipeline: determinism, scale space, detection, descriptors."""

import numpy as np
import pytest

from repro.apps.sift import (
    DetectorConfig,
    PyramidConfig,
    build_scale_space,
    detect_keypoints,
    gaussian_blur,
    gaussian_kernel,
    gradients,
    match_descriptors,
    sift,
)
from repro.errors import SpeedError
from repro.workloads import synthetic_image


@pytest.fixture(scope="module")
def image():
    return synthetic_image(96, seed=5)


@pytest.fixture(scope="module")
def features(image):
    return sift(image)


class TestGaussian:
    def test_kernel_normalised(self):
        assert gaussian_kernel(1.5).sum() == pytest.approx(1.0)

    def test_kernel_symmetric(self):
        k = gaussian_kernel(2.0)
        assert np.allclose(k, k[::-1])

    def test_bad_sigma(self):
        with pytest.raises(SpeedError):
            gaussian_kernel(0)

    def test_blur_preserves_mean(self):
        rng = np.random.default_rng(0)
        img = rng.random((32, 32))
        assert gaussian_blur(img, 2.0).mean() == pytest.approx(img.mean(), rel=0.05)

    def test_blur_reduces_variance(self):
        rng = np.random.default_rng(0)
        img = rng.random((64, 64))
        assert gaussian_blur(img, 3.0).var() < img.var()

    def test_blur_requires_2d(self):
        with pytest.raises(SpeedError):
            gaussian_blur(np.zeros(10), 1.0)

    def test_gradients_of_ramp(self):
        ramp = np.tile(np.arange(16, dtype=float), (16, 1))
        mag, ori = gradients(ramp)
        assert mag[8, 8] == pytest.approx(1.0)
        assert ori[8, 8] == pytest.approx(0.0)  # pure +x gradient


class TestScaleSpace:
    def test_octave_count_bounded_by_size(self, image):
        space = build_scale_space(image)
        assert 1 <= len(space.gaussians) <= PyramidConfig().max_octaves
        for octave in space.gaussians:
            assert min(octave[0].shape) >= PyramidConfig().min_size // 2

    def test_interval_counts(self, image):
        space = build_scale_space(image)
        s = space.config.scales_per_octave
        assert len(space.gaussians[0]) == s + 3
        assert len(space.dogs[0]) == s + 2

    def test_octaves_halve(self, image):
        space = build_scale_space(image)
        if len(space.gaussians) >= 2:
            h0 = space.gaussians[0][0].shape[0]
            h1 = space.gaussians[1][0].shape[0]
            assert h1 == (h0 + 1) // 2

    def test_uint8_and_float_agree(self, image):
        as_float = image.astype(np.float64) / 255.0
        a = build_scale_space(image)
        b = build_scale_space(as_float)
        assert np.allclose(a.gaussians[0][0], b.gaussians[0][0])

    def test_tiny_image_rejected(self):
        with pytest.raises(SpeedError):
            build_scale_space(np.zeros((8, 8)))


class TestDetection:
    def test_finds_keypoints_in_structured_image(self, image):
        space = build_scale_space(image)
        assert len(detect_keypoints(space)) > 5

    def test_flat_image_has_no_keypoints(self):
        space = build_scale_space(np.full((64, 64), 0.5))
        assert detect_keypoints(space) == []

    def test_keypoints_inside_image(self, image):
        space = build_scale_space(image)
        for kp in detect_keypoints(space):
            assert 0 <= kp.x < image.shape[1]
            assert 0 <= kp.y < image.shape[0]
            assert kp.sigma > 0

    def test_blob_is_detected_near_its_center(self):
        yy, xx = np.mgrid[0:64, 0:64].astype(float)
        img = np.exp(-((yy - 32) ** 2 + (xx - 32) ** 2) / (2 * 4.0**2))
        space = build_scale_space(img)
        keypoints = detect_keypoints(space, DetectorConfig(contrast_threshold=0.005))
        assert keypoints, "isolated blob must produce a keypoint"
        best = min(keypoints, key=lambda k: (k.x - 32) ** 2 + (k.y - 32) ** 2)
        assert abs(best.x - 32) < 3 and abs(best.y - 32) < 3


class TestDescriptors:
    def test_shape(self, features):
        assert features.ndim == 2
        assert features.shape[1] == 4 + 128

    def test_descriptor_range(self, features):
        desc = features[:, 4:]
        assert desc.min() >= 0 and desc.max() <= 255

    def test_deterministic(self, image, features):
        assert np.array_equal(sift(image), features)

    def test_identical_images_match_strongly(self, features):
        if len(features) >= 2:
            matches = match_descriptors(features, features, ratio=0.9)
            # Self-matching should pair most keypoints with themselves.
            same = sum(1 for i, j in matches if i == j)
            assert same >= len(matches) * 0.8

    def test_different_images_match_weakly(self):
        a = sift(synthetic_image(96, seed=1))
        b = sift(synthetic_image(96, seed=2))
        if len(a) and len(b) >= 2:
            matches = match_descriptors(a, b)
            assert len(matches) <= max(3, 0.5 * len(a))

    def test_empty_match_inputs(self):
        empty = np.zeros((0, 132))
        assert match_descriptors(empty, empty) == []
