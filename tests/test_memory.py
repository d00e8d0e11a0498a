"""Peak allocation of a job's attack and scoring stages and of the curve fits,
in float64 planes.

tracemalloc sees every numpy allocation, so the peak above the level at entry
counts the planes a stage holds at once. At 256² the attack peaks at 4.26
planes (4.25 at 1024²) and the scoring at 5.60 (5.23 at 1024²). The attack
peaked at 6.26 while it kept the speckled plane and filtered a copy of it;
it now filters the plane it speckles in place and drops that plane before
the histogram match. When every image type copied its planes and
each SSIM moment had its own padded buffers, they peaked at 11.26 and 9.38,
with one zero-padded input buffer per scale the scoring peaked at 6.74, and
with a whole product plane and each moment a view into its padded-width
inverse it peaked at 6.23.
The curve fits peak at 1.28 planes, the plane cost that the LM evaluates at
the solution; when every LM cost built a residual plane they peaked at 3.01.

tracemalloc cannot see the buffers pocketfft allocates inside a transform,
such as the complex intermediate of scipy's multi-axis ``irfftn``. Most of
the resident-memory drop from transforming the SSIM moments with numpy's
single-axis transforms in place is there, so these bounds understate it.
"""

import tracemalloc

import numpy as np

from sarfx import (
    AttackConfig,
    default_smoothing,
    evaluate_pair,
    fit_gaussian,
    fit_raised_cosine,
    magnitude_spectrum,
    normalize_energy,
    raised_cosine_filter,
    run_attack,
    simulate_pristine,
    smooth_reflectivity,
)
from sarfx.spectral import smooth_spectrum

N = 256
PLANE_BYTES = 8 * N * N


def _peak_planes(fn):
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, (tracemalloc.get_traced_memory()[1] - entry) / PLANE_BYTES
    finally:
        tracemalloc.stop()


def test_attack_and_scoring_peaks_in_planes():
    image = smooth_reflectivity(N, 1)
    config = AttackConfig(seed=3, transfer_function=raised_cosine_filter(N, 0.7))
    attacked = run_attack(image, config)
    evaluate_pair(attacked, image)  # caches the SSIM window spectra, once per shape
    result, attack_peak = _peak_planes(lambda: run_attack(image, config))
    assert np.array_equal(result.values, attacked.values)
    _, scoring_peak = _peak_planes(lambda: evaluate_pair(attacked, image))
    assert attack_peak <= 4.5
    assert scoring_peak <= 5.75


def test_curve_fit_peaks_in_planes():
    source = simulate_pristine(smooth_reflectivity(N, 1), raised_cosine_filter(N, 0.7), seed=5)
    kernel, sigma = default_smoothing(N)
    data = normalize_energy(smooth_spectrum(magnitude_spectrum(source), sigma, kernel))
    for fit in (fit_raised_cosine, fit_gaussian):
        params, peak = _peak_planes(lambda: fit(data))
        assert params == fit(data)
        assert peak <= 2.0, fit.__name__
