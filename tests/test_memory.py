"""Peak allocation of a job's stages, of a whole job and of the curve fits,
in float64 planes.

tracemalloc sees every numpy allocation, so the peak above the level at entry
counts the planes a stage holds at once. At 256² the attack peaks at 4.00
planes with phase-only and with full speckle alike (4.00 at 1024²), and the
scoring at 4.75 (4.14). Spectrum smoothing peaks at 3.35 (1.51 at 1024²,
where its 64-row blocks are a smaller share of a plane), a direct H estimate
at 4.35 (3.00), and a whole job with a self-estimated H and a fingerprint at
7.16 planes above its entry (6.39).

Before, these were 4.26, 5.60, 6.11, 6.11 and 8.74 (at 1024²: 4.25, 5.23,
5.99, 6.00 and 8.36). The histogram match wrote into a plane of its own
instead of the attack's |z|; every second moment of the SSIM pass was a
compact plane of its own instead of being consumed a row block at a time;
smoothing padded and transformed whole planes; a direct estimate clipped,
divided and then copied new planes; and a job scored its fingerprint after
SSIM, holding its plane through that pass. Earlier still, the attack peaked at
6.26 while it kept the speckled plane and filtered a copy of it. When every
image type copied its planes and each SSIM moment had its own padded buffers,
the attack and the scoring peaked at 11.26 and 9.38; with one zero-padded
input buffer per scale the scoring peaked at 6.74, and with a whole product
plane and each moment a view into its padded-width inverse at 6.23.
Full speckle peaked at 5.00 (5.00) while ``generate_speckle`` held its phases,
its uniform draw, its amplitudes and two product planes at once, instead of
drawing into the one complex plane that the attack filters.
The scoring peaked at 5.01 (4.32) while it ran five moments at fftconvolve's
linear transform sizes and kept each call's formed row block through the
inverse. The curve fits peak at 1.28 planes, the plane cost that the LM
evaluates at the solution; when every LM cost built a residual plane they
peaked at 3.01.

tracemalloc cannot see the buffers pocketfft allocates inside a transform,
such as the complex intermediate of scipy's multi-axis ``irfftn``. Most of
the resident-memory drop from transforming the SSIM moments with numpy's
single-axis transforms in place is there, so these bounds understate it.
"""

import tracemalloc

import numpy as np

from sarfx import (
    MODE_FULL,
    MODE_PHASE_ONLY,
    EditOp,
    ExperimentConfig,
    default_smoothing,
    estimate_transfer_function,
    evaluate_pair,
    fit_gaussian,
    fit_raised_cosine,
    magnitude_spectrum,
    normalize_energy,
    raised_cosine_filter,
    residual_variance,
    run_attack,
    simulate_pristine,
    smooth_reflectivity,
    write_raster,
)
from sarfx.experiment import ManifestItem, _run_job
from sarfx.raster import AmplitudeImage
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
    h = raised_cosine_filter(N, 0.7)
    for mode in (MODE_PHASE_ONLY, MODE_FULL):
        attacked = run_attack(image, h, 3, speckle_mode=mode)
        result, attack_peak = _peak_planes(lambda: run_attack(image, h, 3, speckle_mode=mode))
        assert np.array_equal(result.values, attacked.values)
        assert attack_peak <= 4.25, mode
    evaluate_pair(attacked, image)  # caches the SSIM window spectra, once per shape
    _, scoring_peak = _peak_planes(lambda: evaluate_pair(attacked, image))
    assert scoring_peak <= 5.0


def test_smoothing_and_direct_estimate_peaks_in_planes():
    image = simulate_pristine(smooth_reflectivity(N, 1), raised_cosine_filter(N, 0.7), seed=5).amplitude()
    kernel, sigma = default_smoothing(N)
    mag = magnitude_spectrum(image)
    smoothed, smooth_peak = _peak_planes(lambda: smooth_spectrum(mag, sigma, kernel))
    h, estimate_peak = _peak_planes(lambda: estimate_transfer_function(image))
    assert np.array_equal(smoothed, smooth_spectrum(mag, sigma, kernel))
    assert np.array_equal(h.values, estimate_transfer_function(image).values)
    assert smooth_peak <= 3.5
    assert estimate_peak <= 4.5


def test_job_peak_in_planes(tmp_path):
    # one splice-geo job: whole-tile edit, self-estimated direct H, attack, fingerprint AUC
    tile = simulate_pristine(smooth_reflectivity(N, 1), raised_cosine_filter(N, 0.7), seed=5).amplitude()
    write_raster(AmplitudeImage(residual_variance(tile), copy=False), tmp_path / "fp.sarf")
    item = ManifestItem("t0", "unused", "P", str(tmp_path / "fp.sarf"))
    config = ExperimentConfig([item], [], (N // 8, N // 8), 7, str(tmp_path),
                              {"filter": {"estimate": {"strategy": "direct", "sources": "self"}}})
    shared = {"products": {"P": [tile]}, "index_in_product": {"t0": 0}, "filter": None}
    edit = EditOp("upscale")
    row = _run_job(item, edit, config, shared, tmp_path)  # caches the SSIM window spectra
    again, job_peak = _peak_planes(lambda: _run_job(item, edit, config, shared, tmp_path))
    assert again == row and row["auc"] is not None
    assert job_peak <= 7.4


def test_curve_fit_peaks_in_planes():
    source = simulate_pristine(smooth_reflectivity(N, 1), raised_cosine_filter(N, 0.7), seed=5)
    kernel, sigma = default_smoothing(N)
    data = normalize_energy(smooth_spectrum(magnitude_spectrum(source), sigma, kernel))
    for fit in (fit_raised_cosine, fit_gaussian):
        params, peak = _peak_planes(lambda: fit(data))
        assert params == fit(data)
        assert peak <= 2.0, fit.__name__
