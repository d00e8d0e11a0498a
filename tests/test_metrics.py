import warnings

import numpy as np
import pytest

from helpers import assert_threaded_equals_serial

from sarfx import (
    AmplitudeImage,
    DegenerateRegionError,
    MetricReport,
    TamperMask,
    auc_roc,
    delta_enl,
    enl,
    evaluate_pair,
    ms_ssim,
    residual_variance,
    ssim,
)
from sarfx import metrics
from sarfx.metrics import MSSSIM_WEIGHTS, gaussian_window, ms_ssim_scale_count
from sarfx.spectral import valid_convolver


def _image(shape, seed, low=0.0, high=1000.0):
    return AmplitudeImage(np.random.default_rng(seed).uniform(low, high, shape))


def _reference_ssim(a, b, drange):
    """Independent SSIM: direct per-window weighted statistics."""
    from numpy.lib.stride_tricks import sliding_window_view

    w = gaussian_window()
    c1 = (0.01 * drange) ** 2
    c2 = (0.03 * drange) ** 2
    wa = sliding_window_view(a, (11, 11))
    wb = sliding_window_view(b, (11, 11))
    mu_a = np.einsum("ijkl,kl->ij", wa, w)
    mu_b = np.einsum("ijkl,kl->ij", wb, w)
    e_aa = np.einsum("ijkl,kl->ij", wa * wa, w)
    e_bb = np.einsum("ijkl,kl->ij", wb * wb, w)
    e_ab = np.einsum("ijkl,kl->ij", wa * wb, w)
    var_a = e_aa - mu_a**2
    var_b = e_bb - mu_b**2
    cov = e_ab - mu_a * mu_b
    val = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    return float(val.mean())


def _reference_ms_ssim(a, b, drange):
    """Independent MS-SSIM built on the direct-window SSIM components."""
    from numpy.lib.stride_tricks import sliding_window_view

    w = gaussian_window()
    c2 = (0.03 * drange) ** 2
    weights = MSSSIM_WEIGHTS
    score = 1.0
    for level in range(5):
        wa = sliding_window_view(a, (11, 11))
        wb = sliding_window_view(b, (11, 11))
        mu_a = np.einsum("ijkl,kl->ij", wa, w)
        mu_b = np.einsum("ijkl,kl->ij", wb, w)
        e_aa = np.einsum("ijkl,kl->ij", wa * wa, w)
        e_bb = np.einsum("ijkl,kl->ij", wb * wb, w)
        e_ab = np.einsum("ijkl,kl->ij", wa * wb, w)
        cs = ((2 * (e_ab - mu_a * mu_b) + c2) / ((e_aa - mu_a**2) + (e_bb - mu_b**2) + c2)).mean()
        if level == 4:
            term = _reference_ssim(a, b, drange)
        else:
            term = cs
            a = 0.25 * (a[0::2, 0::2] + a[1::2, 0::2] + a[0::2, 1::2] + a[1::2, 1::2])
            b = 0.25 * (b[0::2, 0::2] + b[1::2, 0::2] + b[0::2, 1::2] + b[1::2, 1::2])
        score *= max(term, 0.0) ** weights[level]
    return float(score)


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------


def test_ssim_identical_is_exactly_one():
    image = _image((32, 32), 0)
    assert ssim(image, image) == 1.0


def test_ssim_constant_offset_matches_closed_form():
    L = 65535.0
    c = 10000.0
    a = AmplitudeImage(np.full((16, 16), c))
    b = AmplitudeImage(np.full((16, 16), c + L / 2.0))
    c1 = (0.01 * L) ** 2
    expected = (2 * c * (c + L / 2) + c1) / (c**2 + (c + L / 2) ** 2 + c1)
    assert ssim(a, b, L) == pytest.approx(expected, abs=1e-9)


def test_ssim_matches_second_implementation():
    a = _image((32, 32), 1)
    b = _image((32, 32), 2)
    ours = ssim(a, b)
    oracle = _reference_ssim(a.values, b.values, 65535.0)
    assert ours == pytest.approx(oracle, abs=1e-9)


def _fftconvolve_ssim_terms(a, b, drange, n_scales):
    """The replaced SSIM pass: per-moment fftconvolve, whole luminance and cs planes."""
    from scipy import signal

    c1, c2 = (0.01 * drange) ** 2, (0.03 * drange) ** 2
    terms = []
    for level in range(n_scales):
        if level:
            a, b = metrics._downsample2(a), metrics._downsample2(b)
        mu_a, mu_b, e_aa, e_bb, e_ab = (
            signal.fftconvolve(p, gaussian_window(), "valid") for p in (a, b, a * a, b * b, a * b))
        luminance = (2 * mu_a * mu_b + c1) / (mu_a**2 + mu_b**2 + c1)
        cs = (2 * (e_ab - mu_a * mu_b) + c2) / ((e_aa - mu_a * mu_a) + (e_bb - mu_b * mu_b) + c2)
        full = float(np.mean(luminance * cs)) if level in (0, n_scales - 1) else None
        terms.append((full, float(np.mean(cs))))
    return terms


@pytest.mark.parametrize(
    "shape", [(64, 64), (37, 53), (192, 176), (100, 100), (12, 17), (11, 11), (300, 400)])
def test_ssim_moments_equal_fftconvolve(shape, monkeypatch):
    # the cached one-window-spectrum path against the per-moment fftconvolve it replaced
    from scipy import signal

    rng = np.random.default_rng(sum(shape))
    a, b = rng.uniform(0, 65535, (2, *shape))
    window = gaussian_window()
    windowed = valid_convolver(shape, window, (0, 1))
    for x, y in ((a, None), (b, None), (a, a), (b, b), (a, b)):
        plane = x if y is None else x * y
        assert np.array_equal(windowed(x, y), signal.fftconvolve(plane, window, "valid"))
    n_scales = ms_ssim_scale_count(shape)
    fast = metrics._ssim_terms(a, b, 65535.0, n_scales)
    assert fast == _fftconvolve_ssim_terms(a, b, 65535.0, n_scales)
    # the convolver is cached per shape, so patch the cached entry point itself;
    # each moment reaches it as a plane of the scale's shape, and a product moment
    # with its second factor
    calls = []

    def patched(scale_shape):
        def oracle(plane, other=None, consume=None):
            calls.append(plane.shape)
            assert plane.shape == scale_shape
            if other is not None:
                assert other.shape == scale_shape
                plane = plane * other
            out = signal.fftconvolve(plane, window, "valid")
            if consume is None:
                return out
            consume(slice(0, len(out)), out)  # all rows in one block

        return oracle

    monkeypatch.setattr(metrics, "_window_convolver", patched)
    assert fast == metrics._ssim_terms(a, b, 65535.0, n_scales)
    assert len(calls) == 5 * n_scales


def test_evaluate_pair_on_shared_convolvers_is_thread_safe():
    # the window convolvers are cached per shape and shared by every job thread
    pairs = []
    for seed, shape in enumerate([(256, 256), (192, 320)] * 3):
        a, b = np.random.default_rng(seed).uniform(0, 65535, (2, *shape))
        pairs.append((a, b))
    assert_threaded_equals_serial(lambda a, b: evaluate_pair(a, b, dynamic_range=65535.0), pairs)


def test_ssim_symmetry_and_bound():
    a = _image((24, 24), 3)
    b = _image((24, 24), 4)
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-15)
    assert ssim(a, b) < 1.0


def test_ssim_window_size_guard():
    with pytest.raises(ValueError, match="window"):
        ssim(_image((8, 8), 5), _image((8, 8), 6))


def test_ssim_shape_guard():
    with pytest.raises(ValueError, match="mismatch"):
        ssim(_image((16, 16), 7), _image((16, 18), 8))


# ---------------------------------------------------------------------------
# MS-SSIM
# ---------------------------------------------------------------------------


def test_ms_ssim_identical_is_one():
    image = _image((256, 256), 9)
    assert ms_ssim(image, image) == pytest.approx(1.0, abs=1e-15)


def test_ms_ssim_weights_sum_to_one():
    assert abs(MSSSIM_WEIGHTS.sum() - 1.0) < 1e-12


def test_ms_ssim_matches_reference_oracle():
    base = np.random.default_rng(10).uniform(100, 3000, (256, 256))
    wobble = base + np.random.default_rng(11).normal(0, 40, (256, 256))
    a = AmplitudeImage(base)
    b = AmplitudeImage(np.clip(wobble, 0, None))
    assert ms_ssim(a, b) == pytest.approx(
        _reference_ms_ssim(a.values, b.values, 65535.0), abs=1e-6
    )


def test_ms_ssim_scale_reduction_warns():
    assert ms_ssim_scale_count((176, 176)) == 5
    assert ms_ssim_scale_count((100, 100)) == 4
    a = _image((100, 100), 12)
    b = _image((100, 100), 13)
    with pytest.warns(UserWarning, match="reduced"):
        value = ms_ssim(a, b)
    assert 0.0 <= value <= 1.0
    with pytest.raises(ValueError, match="scale"):
        ms_ssim(_image((8, 8), 14), _image((8, 8), 15))


# ---------------------------------------------------------------------------
# ENL
# ---------------------------------------------------------------------------


def test_enl_degenerate_on_constant_region():
    with pytest.raises(DegenerateRegionError, match="zero-variance"):
        enl(AmplitudeImage(np.full((16, 16), 5.0)))


def test_enl_of_rayleigh_amplitude():
    rng = np.random.default_rng(16)
    field = rng.rayleigh(scale=300.0, size=(512, 512))
    expected = (np.pi / 2.0) / (2.0 - np.pi / 2.0)  # ~3.6600
    assert enl(AmplitudeImage(field)) == pytest.approx(expected, abs=0.05)


def test_enl_scale_invariance():
    image = _image((64, 64), 17, low=10, high=100)
    scaled = AmplitudeImage(image.values * 37.5)
    assert enl(scaled) == pytest.approx(enl(image), rel=1e-10)


def test_enl_region_selection():
    values = np.ones((16, 16))
    values[:8] = np.random.default_rng(18).uniform(10, 20, (8, 16))
    region = np.zeros((16, 16), dtype=bool)
    region[:8] = True
    image = AmplitudeImage(values)
    assert enl(image, region) == pytest.approx(
        values[:8].mean() ** 2 / values[:8].var(), rel=1e-12
    )
    with pytest.raises(DegenerateRegionError):
        enl(image, ~region)  # constant half


def test_delta_enl_trivial_values():
    image = _image((32, 32), 19, low=1, high=50)
    assert delta_enl(image, image) == 0.0
    # ENL 4 vs ENL 2 -> |4-2|/2 = 100%
    quad = AmplitudeImage(np.tile([1.0, 3.0], (8, 8)))
    half = AmplitudeImage(np.tile([2.0 - np.sqrt(2.0), 2.0 + np.sqrt(2.0)], (8, 8)))
    assert enl(quad) == pytest.approx(4.0, rel=1e-12)
    assert enl(half) == pytest.approx(2.0, rel=1e-12)
    assert delta_enl(quad, half) == pytest.approx(100.0, rel=1e-10)


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------


def _mask_with_square(n, lo, hi):
    mask = np.zeros((n, n), dtype=np.uint8)
    mask[lo:hi, lo:hi] = 1
    return TamperMask(mask)


def test_auc_perfect_fingerprint():
    mask = _mask_with_square(32, 8, 16)
    assert auc_roc(mask.values.astype(float), mask) == 1.0


def test_auc_inverted_fingerprint_polarity():
    mask = _mask_with_square(32, 8, 16)
    inverted = 1.0 - mask.values.astype(float)
    assert auc_roc(inverted, mask, polarity="max") == 1.0
    assert auc_roc(inverted, mask, polarity="positive") == 0.0


def test_auc_monotone_invariance_exact():
    rng = np.random.default_rng(20)
    mask = _mask_with_square(64, 10, 30)
    scores = rng.standard_normal((64, 64))
    base = auc_roc(scores, mask, polarity="positive")
    assert auc_roc(3.0 * scores + 11.0, mask, polarity="positive") == base
    assert auc_roc(np.exp(scores), mask, polarity="positive") == base


@pytest.mark.parametrize("ties", ["untied", "rounded", "all-tied"])
def test_auc_average_ranks_equal_rankdata(ties):
    from scipy.stats import rankdata

    rng = np.random.default_rng(21)
    mask = _mask_with_square(96, 20, 61)
    scores = {
        "untied": rng.standard_normal((96, 96)),
        "rounded": np.round(rng.standard_normal((96, 96)), 1),  # ~60 tie groups
        "all-tied": np.full((96, 96), 7.0),
    }[ties]
    labels = mask.values.ravel().astype(bool)
    ranks = rankdata(scores.ravel())
    n_pos, n_neg = int(labels.sum()), int((~labels).sum())
    expected = (float(ranks[labels].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    assert auc_roc(scores, mask, polarity="positive") == expected
    assert auc_roc(scores, mask) == max(expected, 1.0 - expected)


@pytest.mark.parametrize("ties", ["untied", "rounded", "signed-zeros"])
@pytest.mark.parametrize("shape", [(64, 64), (33, 70), (1, 50)])
def test_auc_equals_rankdata_construction(shape, ties):
    # sort + searchsorted ranks of the positives against the full rankdata table
    from scipy.stats import rankdata

    rng = np.random.default_rng(shape[0] * shape[1])
    scores = {
        "untied": rng.standard_normal(shape),
        "rounded": np.round(rng.standard_normal(shape), 1),
        "signed-zeros": rng.integers(-1, 2, shape) * np.where(rng.random(shape) < 0.5, 0.0, 1.0),
    }[ties]
    assert ties != "signed-zeros" or np.signbit(scores[scores == 0]).any()
    ranks = rankdata(scores.ravel())
    for share in (0.01, 0.1, 0.5, 0.9, 0.97):
        labels = rng.random(scores.size) < share
        labels[:2] = True, False
        n_pos, n_neg = int(labels.sum()), int((~labels).sum())
        expected = (float(ranks[labels].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        mask = TamperMask(labels.reshape(shape).astype(np.uint8))
        assert auc_roc(scores, mask, polarity="positive") == expected
        assert auc_roc(scores, mask) == max(expected, 1.0 - expected)


def test_auc_constant_scores_give_half():
    mask = _mask_with_square(16, 4, 8)
    assert auc_roc(np.ones((16, 16)), mask, polarity="positive") == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(ValueError, match="both classes"):
        auc_roc(np.ones((8, 8)), TamperMask(np.ones((8, 8), dtype=np.uint8)))


def test_auc_rejects_fingerprint_of_another_shape():
    # as many scores as pixels, but not laid out as the mask is
    mask = _mask_with_square(64, 8, 16)
    with pytest.raises(ValueError, match=r"fingerprint shape \(32, 128\) does not match mask \(64, 64\)"):
        auc_roc(np.random.default_rng(5).random((32, 128)), mask)


@pytest.mark.parametrize("shape", [(1, 12), (3, 3), (17, 9), (64, 48), (256, 256)])
def test_residual_variance_equals_ndimage_detector(shape):
    # the detector as first written, on ndimage's box filter
    from scipy import ndimage

    v = np.random.default_rng(shape[0] * shape[1]).uniform(0.0, 3000.0, shape)
    resid = v - ndimage.uniform_filter(v, 3)
    var = ndimage.uniform_filter(resid * resid, 9)
    mean = np.maximum(ndimage.uniform_filter(v, 9), 1e-9)
    expected = var / (mean * mean)
    assert np.array_equal(residual_variance(v), expected)
    assert np.array_equal(residual_variance(AmplitudeImage(v)), expected)


def test_auc_rejects_nonfinite_scores():
    mask = _mask_with_square(8, 2, 4)
    scores = np.ones((8, 8))
    scores[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        auc_roc(scores, mask)


def test_ms_ssim_clamps_anticorrelated_structure():
    # checkerboards of opposite phase: cs goes negative, score clamps to 0
    yy, xx = np.mgrid[0:256, 0:256]
    board = ((yy + xx) % 2).astype(float) * 100.0
    a = AmplitudeImage(board + 50.0)
    b = AmplitudeImage(150.0 - board)
    value = ms_ssim(a, b, dynamic_range=255.0)
    assert np.isfinite(value)
    assert 0.0 <= value < 0.5


def test_auc_null_distribution():
    rng = np.random.default_rng(21)
    mask = _mask_with_square(128, 30, 46)
    values = [auc_roc(rng.random((128, 128)), mask, polarity="positive") for _ in range(20)]
    assert all(0.4 < v < 0.6 for v in values)
    assert abs(np.mean(values) - 0.5) < 0.02


# ---------------------------------------------------------------------------
# Report bundling
# ---------------------------------------------------------------------------


def test_evaluate_pair_report():
    a = _image((64, 64), 22, low=100, high=2000)
    b = _image((64, 64), 23, low=100, high=2000)
    mask = _mask_with_square(64, 16, 32)
    fingerprint = np.random.default_rng(24).random((64, 64))
    report = evaluate_pair(a, b, fingerprint=fingerprint, mask=mask)
    assert report.auc is not None and 0.0 <= report.auc <= 1.0
    assert report.delta_enl_pct >= 0.0
    payload = report.to_dict()
    assert set(payload) == {
        "ssim", "msssim", "enl_source", "enl_reference", "delta_enl_pct", "auc", "auc_polarity",
    }
    with pytest.raises(ValueError, match="needs both"):
        evaluate_pair(a, b, fingerprint=fingerprint)


@pytest.mark.parametrize("shape", [(192, 176), (100, 100)], ids=["five-scale", "reduced"])
def test_evaluate_pair_equals_standalone_metrics(shape):
    # one SSIM pass and reused ENLs must give exactly the standalone values
    a = _image(shape, 25, low=100, high=2000)
    b = AmplitudeImage(np.clip(a.values + np.random.default_rng(26).normal(0, 60, shape), 0, None))
    mask = TamperMask((np.arange(shape[0])[:, None] < 40) & (np.arange(shape[1])[None, :] < 50))
    fingerprint = np.random.default_rng(27).standard_normal(shape)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = evaluate_pair(a, b, fingerprint=fingerprint, mask=mask)
        expected = (
            ssim(a, b), ms_ssim(a, b), enl(a), enl(b), delta_enl(a, b),
            auc_roc(fingerprint, mask, polarity="max"),
        )
    assert (
        report.ssim, report.msssim, report.enl_source, report.enl_reference,
        report.delta_enl_pct, report.auc,
    ) == expected
    assert list(report.columns().values()) == list(expected)
    # evaluate_pair and ms_ssim both warn, each pointing at this caller
    reduced = ms_ssim_scale_count(shape) < MSSSIM_WEIGHTS.size
    expected_warnings = [f"MS-SSIM reduced to 4 scales for shape {shape}"] * 2 * reduced
    assert [str(w.message) for w in caught] == expected_warnings
    assert all(w.filename == __file__ for w in caught)


def test_metric_report_validation():
    with pytest.raises(ValueError, match="ssim"):
        MetricReport(ssim=1.5, msssim=1.0, enl_source=1.0, enl_reference=1.0, delta_enl_pct=0.0)
    with pytest.raises(ValueError, match="auc"):
        MetricReport(ssim=1.0, msssim=1.0, enl_source=1.0, enl_reference=1.0,
                     delta_enl_pct=0.0, auc=1.5)
