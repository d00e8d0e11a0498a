import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from hypothesis import given, settings, strategies as st

from helpers import (
    fd_normal_equations,
    naive_dft2,
    naive_idft2,
    plane_cost_and_jtr,
    prescan_cost,
    prescan_cutoff_loop,
    sum_of_squares,
)

from sarfx import (
    AmplitudeImage,
    ComplexImage,
    GaussianFitParams,
    RaisedCosineFitParams,
    RasterError,
    TransferFunction,
    central_flip,
    default_smoothing,
    estimate_direct,
    estimate_transfer_function,
    fit_gaussian,
    fit_raised_cosine,
    gaussian_response,
    magnitude_spectrum,
    normalize_energy,
    normalized_cross_correlation,
    raised_cosine_response,
)
from sarfx import sysid
from sarfx.leastsq import FitDivergenceError, least_squares
from sarfx.sysid import (
    DegenerateSpectrumError,
    freq_grid,
    gaussian_axis,
    nyquist_bins,
    raised_cosine_axis,
)


def _gaussian_plane(h, w, sx, sy):
    gx = np.exp(-(freq_grid(w) ** 2) / (2 * sx**2))
    gy = np.exp(-(freq_grid(h) ** 2) / (2 * sy**2))
    return np.outer(gy, gx)


def _rc_plane(h, w, a, b, fcx, fcy):
    rx = raised_cosine_axis(freq_grid(w), a, b, fcx)
    ry = raised_cosine_axis(freq_grid(h), a, b, fcy)
    return np.outer(ry, rx)


# ---------------------------------------------------------------------------
# magnitude_spectrum
# ---------------------------------------------------------------------------


def test_constant_complex_image_dc_only():
    mag = magnitude_spectrum(ComplexImage(np.full((8, 8), 2.0)))
    assert mag[4, 4] == pytest.approx(2.0 * 64, rel=1e-12)
    mag[4, 4] = 0.0
    assert mag.max() < 1e-9


def test_real_input_symmetric():
    rng = np.random.default_rng(0)
    mag = magnitude_spectrum(AmplitudeImage(rng.uniform(0, 9, (12, 14))))
    assert np.abs(mag - central_flip(mag)).max() <= 1e-12 * mag.max()


def test_magnitude_matches_direct_oracle():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    ours = magnitude_spectrum(ComplexImage(z))
    assert np.abs(ours - np.abs(naive_dft2(z))).max() < 1e-10


@pytest.mark.parametrize("shape", [(8, 8), (9, 16), (15, 13), (12, 14)])
def test_amplitude_magnitude_matches_full_fft(shape):
    # the rfft2 half-spectrum path against the full complex transform
    x = np.random.default_rng(sum(shape)).uniform(0, 9, shape)
    oracle = np.abs(np.fft.fftshift(np.fft.fft2(x)))
    mag = magnitude_spectrum(AmplitudeImage(x))
    assert mag.shape == shape
    assert np.abs(mag - oracle).max() <= 1e-12 * oracle.max()


# ---------------------------------------------------------------------------
# Gaussian fit
# ---------------------------------------------------------------------------


def test_gaussian_fit_recovers_noiseless_params():
    plane = _gaussian_plane(256, 256, 40.0, 25.0)
    scale = np.sqrt(np.sum(plane**2))
    params = fit_gaussian(normalize_energy(plane))
    # after energy normalization the product gain is 1/scale; equal split
    expected_gain = np.sqrt(1.0 / scale)
    assert params.gain_x == pytest.approx(expected_gain, rel=1e-3)
    assert params.gain_y == pytest.approx(expected_gain, rel=1e-3)
    assert abs(params.mean_x) < 1e-3 and abs(params.mean_y) < 1e-3
    assert params.std_x == pytest.approx(40.0, rel=1e-3)
    assert params.std_y == pytest.approx(25.0, rel=1e-3)
    assert params.residual < 1e-6


def test_gaussian_axis_peak_equals_gain():
    assert gaussian_axis(3.0, gain=0.7, mean=3.0, std=5.0) == pytest.approx(0.7, rel=1e-15)


def test_gaussian_fit_with_noise_recovers_mean():
    rng = np.random.default_rng(2)
    plane = _gaussian_plane(128, 128, 20.0, 14.0)
    noisy = np.clip(plane + 0.01 * plane.max() * rng.standard_normal(plane.shape), 0, None)
    params = fit_gaussian(normalize_energy(noisy))
    assert abs(params.mean_x) < 0.5
    assert abs(params.mean_y) < 0.5


def test_fit_rejects_unnormalized_input():
    plane = _gaussian_plane(32, 32, 6.0, 6.0)
    with pytest.raises(ValueError, match="unit energy"):
        fit_gaussian(plane)
    with pytest.raises(ValueError, match="unit energy"):
        fit_raised_cosine(plane)


@pytest.mark.parametrize("fit", [fit_gaussian, fit_raised_cosine], ids=["gaussian", "raised_cosine"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_fit_rejects_nonfinite_input(fit, bad):
    with pytest.raises(ValueError, match="^fit input must be finite; it holds NaN or Inf values$"):
        fit(np.full((16, 16), bad))


# ---------------------------------------------------------------------------
# Raised-cosine fit
# ---------------------------------------------------------------------------


def test_raised_cosine_analytic_endpoints():
    a, b, fc = 0.6, 0.4, 10.0
    assert raised_cosine_axis(0.0, a, b, fc) == pytest.approx(a + b, rel=1e-15)
    assert raised_cosine_axis(fc, a, b, fc) == pytest.approx(a - b, rel=1e-12)
    assert raised_cosine_axis(fc + 0.5, a, b, fc) == 0.0


def test_raised_cosine_fit_recovers_noiseless_params():
    h = w = 256
    fc = 0.35 * nyquist_bins(w)
    plane = _rc_plane(h, w, 0.6, 0.4, fc, fc)
    scale = np.sqrt(np.sum(plane**2))
    params = fit_raised_cosine(normalize_energy(plane))
    assert params.a_x == pytest.approx(0.6 / np.sqrt(scale), rel=0.01)
    assert params.b_x == pytest.approx(0.4 / np.sqrt(scale), rel=0.01)
    assert params.a_y == pytest.approx(0.6 / np.sqrt(scale), rel=0.01)
    assert params.b_y == pytest.approx(0.4 / np.sqrt(scale), rel=0.01)
    assert params.cutoff_x == pytest.approx(fc, rel=0.01)
    assert params.cutoff_y == pytest.approx(fc, rel=0.01)
    assert params.residual < 1e-6


# ---------------------------------------------------------------------------
# Separable normal equations
# ---------------------------------------------------------------------------


def _dense_gaussian_jacobian(p, fx, fy):
    g, mx, sx, my, sy = p
    gx = np.exp(-((fx - mx) ** 2) / (2.0 * sx**2))
    gy = np.exp(-((fy - my) ** 2) / (2.0 * sy**2))
    base = np.outer(gy, gx)
    m = g * base
    cols = [
        base,
        m * ((fx - mx) / sx**2)[None, :],
        m * (((fx - mx) ** 2) / sx**3)[None, :],
        m * ((fy - my) / sy**2)[:, None],
        m * (((fy - my) ** 2) / sy**3)[:, None],
    ]
    return np.stack([c.ravel() for c in cols], axis=1)


def _rc_lobe_and_partials(f, a, fc):
    f = np.abs(f)
    inside = f <= fc
    theta = np.pi * (f - fc) / fc
    value = np.where(inside, 1.0 - a * np.cos(theta), 0.0)
    d_a = np.where(inside, -np.cos(theta), 0.0)
    d_fc = np.where(inside, -a * np.sin(theta) * np.pi * f / fc**2, 0.0)
    return value, d_a, d_fc


def _dense_rc_jacobian(p, fx, fy):
    g, ax, fcx, ay, fcy = p
    px, dpx_da, dpx_dfc = _rc_lobe_and_partials(fx, ax, fcx)
    py, dpy_da, dpy_dfc = _rc_lobe_and_partials(fy, ay, fcy)
    cols = [
        np.outer(py, px),
        g * np.outer(py, dpx_da),
        g * np.outer(py, dpx_dfc),
        g * np.outer(dpy_da, px),
        g * np.outer(dpy_dfc, px),
    ]
    return np.stack([c.ravel() for c in cols], axis=1)


def _random_gaussian_params(rng):
    return [rng.uniform(0.01, 0.1), rng.uniform(-3, 3), rng.uniform(4, 12),
            rng.uniform(-3, 3), rng.uniform(4, 12)]


def _random_rc_params(rng):
    return [rng.uniform(0.01, 0.1), rng.uniform(0.2, 0.9), rng.uniform(5.3, 15.7),
            rng.uniform(0.2, 0.9), rng.uniform(5.3, 15.7)]


_FITS = pytest.mark.parametrize("fit, plane, dense, draw", [
    (fit_gaussian, lambda h, w: _gaussian_plane(h, w, 9.0, 6.0), _dense_gaussian_jacobian,
     _random_gaussian_params),
    (fit_raised_cosine, lambda h, w: _rc_plane(h, w, 0.6, 0.4, 13.0, 9.0), _dense_rc_jacobian,
     _random_rc_params),
], ids=["gaussian", "raised_cosine"])


def _captured_problem(monkeypatch, fit, data):
    """The (cost, normal_equations, exact_cost) that ``fit`` hands the solver."""
    captured = []

    def spy(cost, x0, normal_equations, exact_cost, **kwargs):
        captured.append((cost, normal_equations, exact_cost))
        return least_squares(cost, x0, normal_equations, exact_cost, **kwargs)

    monkeypatch.setattr(sysid, "least_squares", spy)
    fit(data)
    return captured[0]


@_FITS
def test_separable_normal_equations_match_dense_jacobian(monkeypatch, fit, plane, dense, draw):
    # the fit's projection-space cost and normal equations at random parameters
    # against the plane path: the residual plane's sum of squares (within 1e-12
    # relative, and within the cost's own bound), and JᵀJ and Jᵀr of the
    # explicit (h·w, 5) Jacobian
    h, w = 36, 41
    data = normalize_energy(plane(h, w))
    cost, normal_equations, exact_cost = _captured_problem(monkeypatch, fit, data)
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = np.array(draw(rng))
        jac = dense(p, freq_grid(w), freq_grid(h))
        # the first column is the unit-gain model
        want_cost, want_jtr = plane_cost_and_jtr(data, p[0] * jac[:, 0].reshape(h, w), jac)
        value, bound = cost(p)
        assert abs(value - want_cost) <= 1e-12 * want_cost
        assert abs(value - exact_cost(p)) <= bound
        assert exact_cost(p) == pytest.approx(want_cost, rel=1e-14)
        jtj, jtr = normal_equations(p)
        scale = np.sqrt(np.diag(jac.T @ jac))
        assert np.all(np.abs(jtj - jac.T @ jac) <= 1e-12 * np.outer(scale, scale))
        assert np.all(np.abs(jtr - want_jtr) <= 1e-12 * scale * np.sqrt(want_cost))


_MARGINAL_KINDS = st.sampled_from(["random", "zero", "flat", "spike", "lowpass", "plateau"])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 300), kind=_MARGINAL_KINDS, seed=st.integers(0, 2**32 - 1))
def test_prescan_reaches_the_loops_least_cost(n, kind, seed):
    # the folded scan ranks candidates by sums the loop does not form, so only
    # near-ties may choose differently: its (fc, alpha, beta) costs, as the
    # loop oracle sums it, at most 8 eps ||m||^2 more than the loop's answer
    # (1.96 measured over 24000 marginals of these kinds)
    rng = np.random.default_rng(seed)
    f, nyq = freq_grid(n), nyquist_bins(n)
    if kind == "random":
        marginal = rng.random(n) * rng.uniform(1e-3, 1e3)
    elif kind == "zero":
        marginal = np.zeros(n)
    elif kind == "flat":
        marginal = np.full(n, rng.uniform(0.01, 10.0))
    elif kind == "spike":
        marginal = np.zeros(n)
        marginal[rng.integers(n)] = rng.uniform(0.1, 10.0)
    elif kind == "lowpass":
        lobe = raised_cosine_axis(f, 0.5, 0.5, rng.uniform(0.2, 1.0) * nyq)
        marginal = np.maximum(lobe + 0.02 * rng.standard_normal(n), 0.0)
    else:
        # constant out to |f| = K, then a random tail: the quarter-bin cutoffs in
        # [K, K + 1) all fit the constant exactly and tie in exact arithmetic,
        # so rounding alone picks the loop's winner among them
        plateau = np.abs(f) <= rng.integers(1, max(int(nyq), 1) + 1)
        marginal = np.where(plateau, rng.uniform(0.1, 10.0), rng.random(n) * rng.choice([0.0, 1.0]))
    got, want = sysid._prescan_cutoff(marginal, f, nyq), prescan_cutoff_loop(marginal, f, nyq)
    if kind == "zero":
        assert got == want  # every candidate ties at zero cost: the first wins
    excess = prescan_cost(marginal, f, *got) - prescan_cost(marginal, f, *want)
    assert excess <= 8 * np.finfo(np.float64).eps * float(marginal @ marginal)


@pytest.mark.parametrize("n", [64, 1024])
def test_prescan_equals_the_loop_at_fit_sizes(n):
    # the 1024-bin axis of a tile, on the marginals of a smoothed low-pass plane:
    # the same cutoff, and the lobe within rounding of the loop's
    rng = np.random.default_rng(n)
    f, nyq = freq_grid(n), nyquist_bins(n)
    for cutoff in (0.3, 0.7, 0.95):
        lobe = raised_cosine_axis(f, 0.55, 0.45, cutoff * nyq)
        marginal = np.maximum(lobe * (1.0 + 0.05 * rng.standard_normal(n)), 0.0)
        (fc, *lobe_got), (fc_want, *lobe_want) = (
            sysid._prescan_cutoff(marginal, f, nyq), prescan_cutoff_loop(marginal, f, nyq))
        assert fc == fc_want
        np.testing.assert_allclose(lobe_got, lobe_want, rtol=1e-12)


# ---------------------------------------------------------------------------
# Direct estimation
# ---------------------------------------------------------------------------


def _even_nonneg_plane(shape, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, shape)
    return 0.5 * (raw + central_flip(raw))


@pytest.mark.parametrize("shape", [(16, 16), (15, 13), (8, 12)])
def test_direct_estimation_fixed_point(shape):
    plane = _even_nonneg_plane(shape, sum(shape))
    tf = estimate_direct(plane)
    assert np.abs(tf.values - plane / plane.max()).max() < 1e-10


def test_direct_estimation_exactly_symmetric():
    rng = np.random.default_rng(3)
    tf = estimate_direct(rng.uniform(0, 2, (16, 16)))
    assert np.array_equal(tf.values, central_flip(tf.values))
    assert tf.values.max() == 1.0


@pytest.mark.parametrize("shape", [(8, 8), (15, 13), (8, 12), (9, 16)])
def test_direct_estimation_matches_composed_oracle(shape):
    # the closed form against the transform round trip it stands for
    rng = np.random.default_rng(4)
    f_k = rng.uniform(0, 3, shape)  # asymmetric input
    h_d = naive_idft2(f_k).real
    oracle = np.abs(naive_dft2(h_d))
    oracle = oracle / oracle.max()
    tf = estimate_direct(f_k)
    assert np.abs(tf.values - oracle).max() < 1e-12


def test_direct_estimation_degenerate_zero():
    with pytest.raises(ValueError, match="zero"):
        estimate_direct(np.zeros((8, 8)))


# ---------------------------------------------------------------------------
# TransferFunction invariants
# ---------------------------------------------------------------------------


def test_transfer_function_validation():
    good = np.outer(*(2 * [np.exp(-(freq_grid(16) ** 2) / 30.0)]))
    TransferFunction(good / good.max())
    with pytest.raises(RasterError, match="nonnegative"):
        TransferFunction(good / good.max() - 0.5)
    with pytest.raises(RasterError, match="max gain"):
        TransferFunction(0.9 * good / good.max())  # max != 1
    bad = good / good.max()
    bad = bad.copy()
    bad[0, 3] += 0.2  # break symmetry
    with pytest.raises(RasterError, match="symmetry"):
        TransferFunction(bad)


def test_fitted_responses_are_separable_and_valid():
    plane = _gaussian_plane(64, 64, 12.0, 7.0)
    params = fit_gaussian(normalize_energy(plane))
    tf = gaussian_response(params, (64, 64))
    # rank-1 check through the peak row/column
    r, c = np.unravel_index(np.argmax(tf.values), tf.shape)
    recon = np.outer(tf.values[:, c], tf.values[r, :]) / tf.values[r, c]
    assert np.abs(tf.values - recon).max() < 1e-12

    fc = 9.0
    rc_plane = _rc_plane(64, 64, 0.6, 0.4, fc, fc)
    rc_params = fit_raised_cosine(normalize_energy(rc_plane))
    rc_tf = raised_cosine_response(rc_params, (64, 64))
    r, c = np.unravel_index(np.argmax(rc_tf.values), rc_tf.shape)
    recon = np.outer(rc_tf.values[:, c], rc_tf.values[r, :]) / rc_tf.values[r, c]
    assert np.abs(rc_tf.values - recon).max() < 1e-12


# ---------------------------------------------------------------------------
# estimate_transfer_function orchestration
# ---------------------------------------------------------------------------


def _speckled_source(n, seed, h_plane=None):
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0, 2 * np.pi, (n, n))
    z = rng.uniform(500, 1500, (n, n)) * np.exp(1j * phase)
    if h_plane is not None:
        z = np.fft.ifft2(np.fft.ifftshift(np.fft.fftshift(np.fft.fft2(z)) * h_plane))
    return ComplexImage(z)


def test_identical_sources_match_single_source():
    src = _speckled_source(32, 11)
    single = estimate_transfer_function([src], "direct", sigma=3.0, kernel_size=9)
    double = estimate_transfer_function([src, src], "direct", sigma=3.0, kernel_size=9)
    assert np.array_equal(single.values, double.values)


def test_known_is_not_an_estimation_strategy():
    # a known H is built as a TransferFunction directly, never estimated
    src = _speckled_source(16, 4)
    with pytest.raises(ValueError, match=r"unknown estimation strategy 'known'; accepted: "
                                         r"\['gaussian', 'raised_cosine', 'direct'\]"):
        estimate_transfer_function([src], "known", sigma=3.0, kernel_size=9)


def test_source_permutation_is_bit_invariant():
    sources = [_speckled_source(32, seed) for seed in (1, 2, 3)]
    a = estimate_transfer_function(sources, "direct", sigma=3.0, kernel_size=9)
    b = estimate_transfer_function(sources[::-1], "direct", sigma=3.0, kernel_size=9)
    assert np.array_equal(a.values, b.values)


def test_amplitude_sources_restricted():
    amp = AmplitudeImage(np.random.default_rng(0).uniform(1, 10, (32, 32)))
    for strategy in ("gaussian", "raised_cosine"):
        with pytest.raises(ValueError, match="amplitude"):
            estimate_transfer_function([amp], strategy, sigma=3.0, kernel_size=9)
    with pytest.raises(ValueError, match="exactly one"):
        estimate_transfer_function([amp, amp], "direct", sigma=3.0, kernel_size=9)
    tf = estimate_transfer_function([amp], "direct", sigma=3.0, kernel_size=9)
    assert tf.values.max() == 1.0


def test_mixed_dimensions_rejected():
    a = _speckled_source(32, 5)
    b = _speckled_source(16, 6)
    with pytest.raises(RasterError, match="dimensions"):
        estimate_transfer_function([a, b], "direct", sigma=3.0, kernel_size=9)


def test_multi_source_estimate_tracks_truth():
    n = 64
    h_plane = _gaussian_plane(n, n, 10.0, 10.0)
    h_true = h_plane / h_plane.max()
    sources = [_speckled_source(n, 100 + k, h_plane) for k in range(3)]
    tf = estimate_transfer_function(sources, "direct", sigma=3.0, kernel_size=19)
    assert normalized_cross_correlation(tf.values, h_true) >= 0.95


def test_every_strategy_satisfies_constraint_set():
    n = 48
    h_plane = _gaussian_plane(n, n, 9.0, 7.0)
    sources = [_speckled_source(n, 40 + k, h_plane) for k in range(2)]
    for strategy in ("direct", "gaussian", "raised_cosine"):
        tf = estimate_transfer_function(sources, strategy, sigma=2.0, kernel_size=13)
        assert np.all(tf.values >= 0)
        assert abs(tf.values.max() - 1.0) <= 1e-12
        assert np.abs(tf.values - central_flip(tf.values)).max() <= 1e-9


def _numpy_source(n=128, seed=128):
    """A speckled, raised-cosine-filtered complex tile drawn with numpy alone."""
    rng = np.random.default_rng(seed)
    f = np.abs(np.arange(n) - n // 2)
    fc = 0.7 * (n // 2)
    lobe = np.where(f <= fc, 0.6 - 0.4 * np.cos(np.pi * (f - fc) / fc), 0.0)
    scene = ndimage.gaussian_filter(rng.uniform(500.0, 3000.0, (n, n)), 6.0)
    speckle = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z = np.fft.ifft2(np.fft.fft2(scene * speckle) * np.fft.ifftshift(np.outer(lobe, lobe)))
    return ComplexImage(z)


_FIT_RESPONSES = {
    "gaussian": (GaussianFitParams, gaussian_response),
    "raised_cosine": (RaisedCosineFitParams, raised_cosine_response),
}


@pytest.mark.parametrize("strategy", ["direct", "gaussian", "raised_cosine"])
def test_estimate_matches_stored_old_path_result(strategy):
    # sysid_old_path_128.npz holds, for the default 128² smoothing, the direct
    # H of the source's amplitude and the fitted parameters and LM iteration
    # counts on the complex source, as computed by ndimage.convolve1d
    # smoothing, complex fft2 magnitudes and LM on the dense Jacobian
    stored = np.load(Path(__file__).parent / "data" / "sysid_old_path_128.npz")
    src = _numpy_source()
    if strategy == "direct":
        tf = estimate_transfer_function(src.amplitude(), strategy)
        old = stored["direct"]
    else:
        tf = estimate_transfer_function(src, strategy)
        (params,) = tf.fit_params
        cls, response = _FIT_RESPONSES[strategy]
        old = response(cls(*stored[f"{strategy}_params"]), tf.shape).values
        assert params.iterations == int(stored[f"{strategy}_iterations"])
        assert params.stop in ("step", "cost", "damping", "exact")
    assert np.abs(tf.values - old).max() <= 1e-12


_FIT_IN_CHILD = """
import dataclasses, json
from test_sysid import _numpy_source
from sarfx.sysid import estimate_transfer_function
out = {}
for strategy in ("gaussian", "raised_cosine"):
    (params,) = estimate_transfer_function(_numpy_source(), strategy).fit_params
    out[strategy] = {k: v.hex() if isinstance(v, float) else v
                     for k, v in dataclasses.asdict(params).items()}
print(json.dumps(out))
"""


def test_curve_fits_do_not_depend_on_blas_threads():
    # the fixture's source fitted in children that differ only in the BLAS thread
    # count: parameters, iterations and the residual agree to the bit
    tests = Path(__file__).resolve().parent
    fits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join((str(tests.parent / "src"), str(tests))))
        result = subprocess.run([sys.executable, "-c", _FIT_IN_CHILD], env=env,
                                capture_output=True, text=True, check=True)
        fits.append(json.loads(result.stdout))
    assert fits[0] == fits[1]
    stored = np.load(tests / "data" / "sysid_old_path_128.npz")
    for strategy, fit in fits[0].items():
        assert fit["iterations"] == int(stored[f"{strategy}_iterations"])


@pytest.mark.parametrize("strategy", ["direct", "gaussian", "raised_cosine"])
def test_single_source_estimate_is_not_renormalized(strategy):
    # the per-source H is returned as is; renormalizing it, as the combined path
    # does, must change no bit
    src = _numpy_source(64, 64)
    tf = estimate_transfer_function(src, strategy)
    assert tf.values.max() == 1.0 and tf.strategy == strategy
    again = sysid._normalized_response(tf.values.copy(), strategy)  # it normalizes in place
    assert np.array_equal(tf.values, again.values)
    assert np.array_equal(estimate_transfer_function([src], strategy).values, tf.values)


@pytest.mark.parametrize("strategy, kernel_size, sources, validations", [
    ("direct", None, 2, 3),
    ("raised_cosine", 13, 1, 1),
])
def test_estimate_records_how_it_was_made(monkeypatch, strategy, kernel_size, sources, validations):
    # H carries the smoothing used (defaults filled in) and one fit record per
    # source, and is validated once per response built: per source, and once
    # more for the mean of several
    checks = []
    validate = TransferFunction.__post_init__
    monkeypatch.setattr(TransferFunction, "__post_init__",
                        lambda self, copy: checks.append(self.strategy) or validate(self, copy))
    src = _numpy_source(64, 64)
    tf = estimate_transfer_function([src] * sources, strategy, kernel_size=kernel_size)
    assert len(checks) == validations
    assert tf.smoothing == (kernel_size or default_smoothing(64)[0], default_smoothing(64)[1])
    if strategy == "direct":
        assert tf.fit_params == (None,) * sources
    else:
        (params,) = tf.fit_params
        assert isinstance(params, RaisedCosineFitParams) and params.iterations >= 1
    known = TransferFunction(tf.values)
    assert known.strategy == "known" and known.smoothing is None and known.fit_params == ()


def test_default_smoothing_scaling():
    assert default_smoothing(1024) == (601, 100.0)
    assert default_smoothing(2048) == (601, 100.0)
    k, s = default_smoothing(512)
    assert k == 301 and k % 2 == 1
    assert s == pytest.approx(301 / 6.01)
    k_small, _ = default_smoothing(64)
    assert k_small % 2 == 1 and k_small >= 3


def test_full_tile_default_path():
    # the production configuration: one 1024x1024 complex tile, default
    # 601/100 smoothing, direct strategy
    rng = np.random.default_rng(1024)
    z = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
    tf = estimate_transfer_function([ComplexImage(z)], "direct")
    assert tf.shape == (1024, 1024)
    assert np.all(tf.values >= 0)
    assert tf.values.max() == 1.0
    assert np.abs(tf.values - central_flip(tf.values)).max() <= 1e-9
    # white input -> near-flat estimated response
    assert tf.values.min() > 0.5


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("strategy", ["gaussian", "raised_cosine"])
def test_white_spectrum_fails_before_the_fit(monkeypatch, strategy, n):
    # seeded white noise has a flat spectrum: no low-pass to fit, so both curve
    # fits refuse it from the prescan, naming the strategy, before any LM step
    def no_solver(*args, **kwargs):
        raise AssertionError("the LM solver ran on a white spectrum")

    monkeypatch.setattr(sysid, "least_squares", no_solver)
    rng = np.random.default_rng(n)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    with pytest.raises(DegenerateSpectrumError, match=f"^{strategy} fit: .*use the direct strategy"):
        estimate_transfer_function(ComplexImage(z), strategy)


# ---------------------------------------------------------------------------
# Solver contract
# ---------------------------------------------------------------------------


def _solve(residual_fn, x0, **kwargs):
    cost, exact_cost = sum_of_squares(residual_fn)
    return least_squares(cost, x0, fd_normal_equations(residual_fn), exact_cost, **kwargs)


def test_solver_raises_on_iteration_cap():
    # cost keeps shrinking but never meets the relative tolerances
    residual = lambda p: np.array([np.exp(-p[0])])
    with pytest.raises(FitDivergenceError, match="convergence"):
        _solve(residual, [0.0], max_iter=50)


def test_solver_converges_on_quadratic():
    residual = lambda p: np.array([p[0] - 3.0, 2.0 * (p[1] + 1.0)])
    result = _solve(residual, [0.0, 0.0])
    assert result.params == pytest.approx([3.0, -1.0], abs=1e-10)
    assert result.residual_norm < 1e-10


def test_solver_reports_why_it_stopped():
    quadratic = _solve(lambda p: np.array([p[0] - 3.0, 2.0 * (p[1] + 1.0)]), [0.0, 0.0])
    assert quadratic.stop == "step"
    # an inconsistent pair: the cost stalls at 2 while x keeps moving toward 0
    stalled = _solve(lambda p: np.array([p[0] - 1.0, p[0] + 1.0]), [5.0])
    assert stalled.stop == "cost" and stalled.residual_norm == pytest.approx(np.sqrt(2.0))
    assert _solve(lambda p: np.array([p[0] - 2.0, p[1]]), [2.0, 0.0]).stop == "exact"
    # every trial step leaves the finite region, so damping saturates
    blocked_cost, blocked_exact = sum_of_squares(lambda p: np.array([1.0 if p[0] == 0.0 else np.inf]))
    blocked = least_squares(blocked_cost, [0.0], lambda p: (np.eye(1), np.ones(1)), blocked_exact)
    assert blocked.stop == "damping" and blocked.iterations == 1


def test_bounded_cost_rechecks_a_zero_cost():
    # one step lands where the residual is exactly zero, while the fast cost
    # there reads its full bound: the solver checks the exact cost and stops
    # on "exact" at once
    residual = lambda p: np.array([min(p[0], 0.0)])
    _, exact_cost = sum_of_squares(residual)
    overshoot = lambda p: (np.eye(1), np.array([2.0 * min(p[0], 0.0)]))
    result = least_squares(lambda p: (exact_cost(p) + 1e-3, 1e-3), [-1.0], overshoot, exact_cost)
    assert (result.iterations, result.stop, result.residual_norm) == (1, "exact", 0.0)


_SOLVER_PROBLEMS = {
    # (residual, x0): stops on step, on cost, on an exact zero, and on cost
    # after a long, slowly converging run
    "rosenbrock": (lambda p: np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]]), [-1.2, 1.0]),
    "stalled": (lambda p: np.array([p[0] - 1.0, p[0] + 1.0, 0.1 * p[0] ** 2]), [5.0]),
    "exact": (lambda p: np.array([p[0] - 2.0, p[1] ** 2 - 4.0]), [1.0, 1.0]),
    "exp-fit": (lambda p: p[0] * np.exp(-p[1] * np.arange(8.0)) - np.exp(-0.3 * np.arange(8.0)) - 0.01,
                [0.5, 1.0]),
}


@pytest.mark.parametrize("scale", [1e-3, 1e-9, 0.0])
@pytest.mark.parametrize("problem", list(_SOLVER_PROBLEMS))
def test_bounded_cost_decides_as_the_exact_cost(problem, scale):
    # a fast cost off the exact one by up to its stated bound takes every
    # decision of the exact cost: the same iterates bit for bit, the same stop,
    # and a residual norm from the exact cost at the solution
    residual, x0 = _SOLVER_PROBLEMS[problem]
    normal_equations = fd_normal_equations(residual)
    cost, exact_cost = sum_of_squares(residual)
    exact_calls = []

    def noisy_cost(x):
        value = exact_cost(x)
        bound = scale * (1.0 + value)
        # a deterministic error of up to the bound, either sign
        return value + bound * np.sin(1e3 * float(np.sum(x))), bound

    def counted_exact(x):
        exact_calls.append(1)
        return exact_cost(x)

    want = least_squares(cost, x0, normal_equations, exact_cost)
    got = least_squares(noisy_cost, x0, normal_equations, counted_exact)
    assert np.array_equal(got.params, want.params)
    assert (got.iterations, got.stop, got.residual_norm) == (want.iterations, want.stop, want.residual_norm)
    # a bound of 0 makes the fast cost exact; otherwise at least the residual
    # norm comes from the exact cost
    assert (len(exact_calls) >= 1) == (scale > 0)
