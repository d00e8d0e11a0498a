"""A synthetic acquisition: scenes, a known system response, pristine products.

Closure experiments need ground truth the real world does not give: a
noise-free reflectivity, the system response H that acquired it, and the
complex product the acquisition released. ``smooth_reflectivity`` draws the
scene, ``raised_cosine_filter`` is a known H, and ``simulate_pristine``
acquires the one through the other.
"""

from __future__ import annotations

import numpy as np

from .attack import apply_system
from .forgery import _gaussian_blur
from .raster import AmplitudeImage, ComplexImage
from .speckle import MODE_FULL, generate_speckle, inject_speckle
from .sysid import TransferFunction, freq_grid, nyquist_bins, raised_cosine_axis


def smooth_reflectivity(n: int, seed: int) -> AmplitudeImage:
    """Positive smooth n×n scene with realistic 16-bit SLC pixel levels: white
    noise blurred at σ = n/24, stretched to [500, 2500]."""
    # numpy's default generator, not speckle.rng: scenes drawn by earlier
    # versions, and every output pinned from them, keep their bytes
    noise = np.random.default_rng(seed).standard_normal((n, n))
    base = _gaussian_blur(noise, n / 24.0)
    base = (base - base.min()) / (base.max() - base.min())
    return AmplitudeImage((0.25 + base) * 2000.0)


def raised_cosine_filter(n: int, cutoff_fraction: float) -> TransferFunction:
    """Known n×n H: a separable raised-cosine low-pass with unit DC gain,
    cut off at ``cutoff_fraction`` of Nyquist."""
    axis = raised_cosine_axis(freq_grid(n), 0.5, 0.5, cutoff_fraction * nyquist_bins(n))
    plane = np.outer(axis, axis)
    return TransferFunction(plane / plane.max(), "known")


def simulate_pristine(reflectivity: AmplitudeImage, h_true: TransferFunction, seed: int) -> ComplexImage:
    """Synthesize ground-truth pristine complex data from a noise-free scene.

    Full-mode speckle is injected into the reflectivity and the result is
    filtered through the known system response; the amplitude of the output
    plays the role of a released pristine product in closure experiments.
    """
    field = generate_speckle(*reflectivity.shape, MODE_FULL, seed=seed)
    return apply_system(inject_speckle(reflectivity, field), h_true)
