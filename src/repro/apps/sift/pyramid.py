"""Scale-space construction: Gaussian and difference-of-Gaussian pyramids.

Follows Lowe (IJCV 2004) §3: each octave holds ``scales + 3`` Gaussian
images separated by ``k = 2^(1/scales)`` in scale, adjacent pairs
subtract into the DoG stack, and the next octave starts from the image
with twice the base sigma, downsampled by two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import downsample2, gaussian_blur
from ...errors import SpeedError


@dataclass(frozen=True)
class PyramidConfig:
    """Scale-space parameters (Lowe's defaults)."""

    scales_per_octave: int = 3
    base_sigma: float = 1.6
    assumed_blur: float = 0.5
    min_size: int = 16
    max_octaves: int = 8


@dataclass
class ScaleSpace:
    """The computed pyramids plus per-level sigmas."""

    gaussians: list[list[np.ndarray]]   # [octave][interval]
    dogs: list[list[np.ndarray]]        # [octave][interval]
    sigmas: list[float]                  # per interval within an octave
    config: PyramidConfig


def octave_count(shape: tuple[int, ...], config: PyramidConfig | None = None) -> int:
    """Octaves the scale space plans for an image of ``shape``: halve
    until the short side would drop below ``min_size``."""
    config = config or PyramidConfig()
    octaves = int(np.log2(min(shape) / config.min_size)) + 1
    return max(min(config.max_octaves, octaves), 1)


def build_scale_space(image: np.ndarray, config: PyramidConfig | None = None) -> ScaleSpace:
    """Build the Gaussian and DoG pyramids for a grayscale image in [0,1]."""
    config = config or PyramidConfig()
    if image.ndim != 2:
        raise SpeedError("SIFT expects a single-channel image")
    if min(image.shape) < config.min_size:
        raise SpeedError(
            f"image too small for scale space: {image.shape} < {config.min_size}"
        )
    base = image.astype(np.float64)
    if base.max() > 1.5:  # tolerate uint8-range input
        base = base / 255.0

    s = config.scales_per_octave
    k = 2.0 ** (1.0 / s)
    # Per-interval absolute sigmas within one octave.
    sigmas = [config.base_sigma * (k**i) for i in range(s + 3)]
    # Incremental blurs between adjacent intervals.
    increments = [0.0] + [
        float(np.sqrt(sigmas[i] ** 2 - sigmas[i - 1] ** 2)) for i in range(1, s + 3)
    ]

    # Bring the input up to base_sigma from its assumed capture blur.
    initial = float(np.sqrt(max(config.base_sigma**2 - config.assumed_blur**2, 0.01)))
    current = gaussian_blur(base, initial)

    gaussians: list[list[np.ndarray]] = []
    dogs: list[list[np.ndarray]] = []
    for _octave in range(octave_count(base.shape, config)):
        stack = [current]
        for inc in increments[1:]:
            stack.append(gaussian_blur(stack[-1], inc))
        gaussians.append(stack)
        dogs.append([stack[i + 1] - stack[i] for i in range(len(stack) - 1)])
        # Next octave: the image at 2x base sigma, halved.
        current = downsample2(stack[s])
        if min(current.shape) < config.min_size:
            break
    return ScaleSpace(gaussians=gaussians, dogs=dogs, sigmas=sigmas, config=config)
