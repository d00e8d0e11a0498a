"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria with runtime budgets assert wall-clock time as well.
"""

import json
import time

import numpy as np
import pytest
from scipy import stats

from sarfx import (
    AmplitudeImage,
    ComplexImage,
    EditOp,
    GlobalEditOp,
    SpliceSpec,
    TamperMask,
    auc_roc,
    central_flip,
    delta_enl,
    estimate_direct,
    estimate_transfer_function,
    fit_gaussian,
    fit_raised_cosine,
    generate_speckle,
    global_edit,
    histogram_match,
    normalize_energy,
    normalized_cross_correlation,
    raised_cosine_filter,
    random_splice,
    residual_variance,
    run_attack,
    sample_edit_parameter,
    simulate_pristine,
    smooth_reflectivity,
    splice,
    ssim,
    write_raster,
)
from sarfx.cli import main
from sarfx.forgery import EDIT_PARAMETER_RANGES, GLOBAL_NOISE_LEVEL
from sarfx.speckle import DEFAULT_SIGMA_S
from sarfx.sysid import freq_grid, nyquist_bins, raised_cosine_axis


def _report(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


# ---------------------------------------------------------------------------
# 1. Speckle statistics
# ---------------------------------------------------------------------------


def test_c01_speckle_statistics():
    start = time.perf_counter()
    field = generate_speckle(1000, 1000, "full", sigma_s=DEFAULT_SIGMA_S, seed=101)
    amplitude = np.hypot(field.real, field.imag)

    expected_mean = DEFAULT_SIGMA_S * np.sqrt(np.pi / 2.0)
    assert abs(amplitude.mean() - expected_mean) / expected_mean < 0.005

    expected_var = (2.0 - np.pi / 2.0) * DEFAULT_SIGMA_S**2
    assert abs(amplitude.var() - expected_var) / expected_var < 0.01

    phases = np.mod(np.arctan2(field.imag, field.real), 2 * np.pi)
    ks = stats.kstest(phases.ravel(), stats.uniform(loc=0, scale=2 * np.pi).cdf)
    assert ks.pvalue > 0.01

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"1e6-sample Rayleigh/uniform statistics in {elapsed:.2f}s "
               f"(mean err {abs(amplitude.mean() - expected_mean) / expected_mean:.2e}, "
               f"KS p={ks.pvalue:.3f})")


# ---------------------------------------------------------------------------
# 2. Transfer-function constraint set
# ---------------------------------------------------------------------------


def _synthetic_source(n_y, n_x, seed, response):
    rng = np.random.default_rng(seed)
    z = rng.uniform(400, 1200, (n_y, n_x)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (n_y, n_x)))
    shaped = np.fft.ifft2(np.fft.ifftshift(np.fft.fftshift(np.fft.fft2(z)) * response))
    return ComplexImage(shaped)


def test_c02_constraint_set_on_100_estimates():
    rng = np.random.default_rng(2022)
    strategies = ("direct", "gaussian", "raised_cosine")
    shapes = [(48, 48), (64, 64), (49, 63), (56, 40)]
    checked = 0
    for case in range(100):
        n_y, n_x = shapes[case % len(shapes)]
        fx, fy = freq_grid(n_x), freq_grid(n_y)
        if case % 2 == 0:
            sx = rng.uniform(4, 10)
            sy = rng.uniform(4, 10)
            response = np.outer(np.exp(-(fy**2) / (2 * sy**2)), np.exp(-(fx**2) / (2 * sx**2)))
        else:
            fcx = rng.uniform(0.3, 0.8) * nyquist_bins(n_x)
            fcy = rng.uniform(0.3, 0.8) * nyquist_bins(n_y)
            response = np.outer(
                raised_cosine_axis(fy, 0.5, 0.5, fcy), raised_cosine_axis(fx, 0.5, 0.5, fcx)
            )
        source = _synthetic_source(n_y, n_x, 5000 + case, response / response.max())
        tf = estimate_transfer_function(
            [source], strategies[case % 3], sigma=2.5, kernel_size=15
        )
        values = tf.values
        assert np.all(values >= 0.0)  # nonnegativity, exact
        assert np.abs(values - central_flip(values)).max() <= 1e-9
        assert abs(values.max() - 1.0) <= 1e-12
        checked += 1
    assert checked == 100
    _report(2, "100 estimated responses satisfy nonnegativity/symmetry/unit-gain")


# ---------------------------------------------------------------------------
# 3. Fit recovery
# ---------------------------------------------------------------------------


def test_c03_fit_recovery():
    start = time.perf_counter()
    n = 256
    fx = freq_grid(n)

    # Gaussian: noiseless parameters within 1% (recovered to ~1e-3 anyway)
    gx = np.exp(-(fx**2) / (2 * 40.0**2))
    gy = np.exp(-(fx**2) / (2 * 25.0**2))
    plane = np.outer(gy, gx)
    scale = np.sqrt(np.sum(plane**2))
    params = fit_gaussian(normalize_energy(plane))
    assert params.std_x == pytest.approx(40.0, rel=0.01)
    assert params.std_y == pytest.approx(25.0, rel=0.01)
    assert abs(params.mean_x) < 0.4 and abs(params.mean_y) < 0.4
    assert params.gain_x == pytest.approx(np.sqrt(1.0 / scale), rel=0.01)

    # Raised cosine: all parameters within 1% relative
    fc = 0.35 * nyquist_bins(n)
    axis = raised_cosine_axis(fx, 0.6, 0.4, fc)
    rc_plane = np.outer(axis, axis)
    rc_scale = np.sqrt(np.sum(rc_plane**2))
    rc = fit_raised_cosine(normalize_energy(rc_plane))
    for got, want in [
        (rc.a_x, 0.6 / np.sqrt(rc_scale)),
        (rc.b_x, 0.4 / np.sqrt(rc_scale)),
        (rc.a_y, 0.6 / np.sqrt(rc_scale)),
        (rc.b_y, 0.4 / np.sqrt(rc_scale)),
        (rc.cutoff_x, fc),
        (rc.cutoff_y, fc),
    ]:
        assert got == pytest.approx(want, rel=0.01)

    # 1% additive noise: cutoff within 2%
    rng = np.random.default_rng(33)
    noisy = np.clip(rc_plane + 0.01 * rc_plane.max() * rng.standard_normal(rc_plane.shape), 0, None)
    rc_noisy = fit_raised_cosine(normalize_energy(noisy))
    assert rc_noisy.cutoff_x == pytest.approx(fc, rel=0.02)
    assert rc_noisy.cutoff_y == pytest.approx(fc, rel=0.02)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"gaussian/raised-cosine parameter recovery in {elapsed:.2f}s "
               f"(noisy cutoff err {abs(rc_noisy.cutoff_x - fc) / fc:.2%})")


# ---------------------------------------------------------------------------
# 4. Direct-estimation fixed point
# ---------------------------------------------------------------------------


def test_c04_direct_estimation_fixed_point():
    rng = np.random.default_rng(44)
    shapes = [(16, 16), (17, 15), (32, 24), (21, 21), (64, 64)]
    for k in range(20):
        shape = shapes[k % len(shapes)]
        raw = rng.uniform(0.05, 1.0, shape)
        even = 0.5 * (raw + central_flip(raw))  # real, even, nonnegative
        tf = estimate_direct(even)
        assert np.abs(tf.values - even / even.max()).max() < 1e-10
    _report(4, "20 real-even-nonnegative inputs reproduce F_K/max(F_K) within 1e-10")


# ---------------------------------------------------------------------------
# 5. Synthetic closure
# ---------------------------------------------------------------------------


def test_c05_synthetic_closure():
    start = time.perf_counter()
    n = 512
    h_true = raised_cosine_filter(n, 0.4)  # cutoff at 0.4 * Nyquist

    # one sibling complex image, direct estimation; smoothing scaled to the
    # synthetic filter's bandwidth (the 1024-tile defaults over-smooth a
    # 0.4-Nyquist response)
    sibling = simulate_pristine(smooth_reflectivity(n, 99), h_true, seed=1999)
    h_est = estimate_transfer_function([sibling], "direct", sigma=20.1, kernel_size=121)
    ncc = normalized_cross_correlation(h_est.values, h_true.values)
    assert ncc >= 0.95

    # Every scene carries a homogeneous 192x192 patch where region-level ENL
    # is a pure speckle measure; the whole-tile figure is pinned to zero by
    # exact rank matching, the patch average checks real speckle fidelity.
    region = np.zeros((n, n), dtype=bool)
    region[32:224, 32:224] = True

    ssim_values, whole_tile_denl, region_denl = [], [], []
    for k in range(10):
        scene = smooth_reflectivity(n, k).values.copy()
        scene[32:224, 32:224] = 1600.0
        pristine = simulate_pristine(AmplitudeImage(scene), h_true, seed=3000 + k).amplitude()
        attacked = run_attack(pristine, h_est, 4000 + k)
        s = ssim(attacked, pristine)
        assert s >= 0.95
        d_tile = delta_enl(attacked, pristine)
        assert d_tile <= 5.0
        ssim_values.append(s)
        whole_tile_denl.append(d_tile)
        region_denl.append(delta_enl(attacked, pristine, region))

    assert float(np.mean(region_denl)) <= 5.0

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(5, f"10-tile closure in {elapsed:.1f}s: NCC {ncc:.3f}, "
               f"SSIM min {min(ssim_values):.4f}, |dENL| tile max {max(whole_tile_denl):.3f}%, "
               f"homogeneous-region mean {np.mean(region_denl):.2f}%")


# ---------------------------------------------------------------------------
# 6. Histogram matching exactness
# ---------------------------------------------------------------------------


def test_c06_histogram_matching_exactness():
    rng = np.random.default_rng(66)
    for _ in range(1000):
        source = AmplitudeImage(rng.uniform(0, 4000, (32, 32)))
        reference = AmplitudeImage(rng.uniform(100, 9000, (32, 32)))
        out = histogram_match(source, reference)
        assert np.array_equal(
            np.sort(out.values, axis=None), np.sort(reference.values, axis=None)
        )
    for _ in range(200):
        reference = AmplitudeImage(rng.uniform(0, 100, (24, 24)))
        source = AmplitudeImage(3.5 * reference.values + 42.0)  # strictly monotone
        assert np.array_equal(histogram_match(source, reference).values, reference.values)
    _report(6, "1000 random pairs multiset-exact; monotone transforms recovered exactly")


# ---------------------------------------------------------------------------
# 7. Splice correctness
# ---------------------------------------------------------------------------


def test_c07_splice_branch_oracle():
    rng = np.random.default_rng(77)
    for _ in range(10_000):
        th, tw = int(rng.integers(8, 13)), int(rng.integers(8, 13))
        dh, dw = int(rng.integers(8, 13)), int(rng.integers(8, 13))
        bh = int(rng.integers(1, min(th, dh) + 1))
        bw = int(rng.integers(1, min(tw, dw) + 1))
        target = rng.uniform(0, 100, (th, tw))
        donor = rng.uniform(200, 300, (dh, dw))
        dr = int(rng.integers(dh - bh + 1))
        dc = int(rng.integers(dw - bw + 1))
        tr = int(rng.integers(th - bh + 1))
        tc = int(rng.integers(tw - bw + 1))
        if rng.random() < 0.5:
            stencil = np.ones((bh, bw), dtype=np.uint8)
        else:
            stencil = (rng.random((bh, bw)) > 0.4).astype(np.uint8)
            if stencil.sum() == 0:
                stencil[0, 0] = 1
        spec = SpliceSpec((dr, dc), (tr, tc), stencil)
        out, mask = splice(AmplitudeImage(target), AmplitudeImage(donor), spec)

        oracle = np.empty_like(target)
        oracle_mask = np.zeros_like(target, dtype=np.uint8)
        for y in range(th):
            for x in range(tw):
                if tr <= y < tr + bh and tc <= x < tc + bw and stencil[y - tr, x - tc]:
                    oracle[y, x] = donor[y - tr + dr, x - tc + dc]
                    oracle_mask[y, x] = 1
                else:
                    oracle[y, x] = target[y, x]
        assert np.array_equal(out.values, oracle)
        assert np.array_equal(mask.values, oracle_mask)
    _report(7, "10000 random splice specs bit-exact against the per-pixel branch oracle")


# ---------------------------------------------------------------------------
# 8. AUC sanity
# ---------------------------------------------------------------------------


def test_c08_auc_sanity():
    mask_plane = np.zeros((1024, 1024), dtype=np.uint8)
    mask_plane[300:428, 500:628] = 1  # 128x128 splice
    mask = TamperMask(mask_plane)

    assert auc_roc(mask_plane.astype(float), mask) == 1.0

    rng = np.random.default_rng(88)
    raw_values, max_values = [], []
    for _ in range(50):
        noise = rng.random((1024, 1024))
        raw_values.append(auc_roc(noise, mask, polarity="positive"))
        max_values.append(auc_roc(noise, mask, polarity="max"))
    raw_values = np.asarray(raw_values)
    max_values = np.asarray(max_values)
    assert np.all(np.abs(raw_values - 0.5) <= 0.02)
    assert np.all((max_values >= 0.5) & (max_values <= 0.52))

    scores = rng.standard_normal((1024, 1024))
    base = auc_roc(scores, mask, polarity="positive")
    assert auc_roc(7.0 * scores + 3.0, mask, polarity="positive") == base
    assert auc_roc(np.tanh(scores), mask, polarity="positive") == base

    _report(8, f"AUC: perfect=1.0, 50-trial null in [{raw_values.min():.3f}, "
               f"{raw_values.max():.3f}], monotone-invariant")


# ---------------------------------------------------------------------------
# 9. Attack effect direction
# ---------------------------------------------------------------------------


def test_c09_attack_reduces_detectability():
    n = 256
    h_true = raised_cosine_filter(n, 0.8)
    sibling = simulate_pristine(smooth_reflectivity(n, 999), h_true, seed=9999)
    h_est = estimate_transfer_function([sibling], "direct", sigma=10.1, kernel_size=61)

    before, after = [], []
    for trial in range(50):
        tile = simulate_pristine(
            smooth_reflectivity(n, trial), h_true, seed=5000 + trial
        ).amplitude()
        spliced, mask, _ = random_splice(
            [tile], region=(64, 64), edit=EditOp("gaussian_blur"), seed=7000 + trial
        )
        before.append(auc_roc(residual_variance(spliced), mask, polarity="max"))
        attacked = run_attack(spliced, h_est, 8000 + trial)
        after.append(auc_roc(residual_variance(attacked), mask, polarity="max"))

    median_before = float(np.median(before))
    median_after = float(np.median(after))
    assert median_after < median_before
    _report(9, f"median stand-in AUC drops {median_before:.3f} -> {median_after:.3f} "
               "after the attack (50 spliced tiles)")


# ---------------------------------------------------------------------------
# 10. Table parameter conformance
# ---------------------------------------------------------------------------


def test_c10_edit_parameter_conformance():
    draws_per_range = 1667
    total = 0
    for (kind, klass), (low, high) in EDIT_PARAMETER_RANGES.items():
        op = EditOp(kind, range_class=klass)
        for seed in range(draws_per_range):
            p = sample_edit_parameter(op, seed)
            assert low <= p <= high
            total += 1
    assert total >= 10_000

    flat = AmplitudeImage(np.full((512, 512), 5000.0))
    noise_specs = [
        ("additive_gaussian", GLOBAL_NOISE_LEVEL),
        ("additive_laplacian", np.sqrt(2.0) * GLOBAL_NOISE_LEVEL),
        ("additive_poisson", np.sqrt(GLOBAL_NOISE_LEVEL)),
        ("additive_uniform", 100.0 / np.sqrt(12.0)),
    ]
    stds = {}
    for kind, expected_std in noise_specs:
        out = global_edit(flat, GlobalEditOp(kind), seed=10)
        measured = float((out.values - flat.values).std())
        assert measured == pytest.approx(expected_std, rel=0.01)
        stds[kind] = measured
    _report(10, f"{total} edit draws inside declared ranges; "
                f"noise stds within 1% (gaussian {stds['additive_gaussian']:.2f})")


# ---------------------------------------------------------------------------
# 11. Determinism of the experiment pipeline
# ---------------------------------------------------------------------------


def test_c11_experiment_determinism(tmp_path):
    h_true = raised_cosine_filter(128, 0.7)
    tiles = {}
    for k in range(2):
        pristine = simulate_pristine(smooth_reflectivity(128, 70 + k), h_true, seed=1100 + k)
        path = tmp_path / f"t{k}.sarf"
        write_raster(pristine.amplitude(), path)
        tiles[k] = path

    def config(out_name):
        payload = {
            "schema_version": 1,
            "manifest": [
                {"id": "t0", "path": str(tiles[0]), "product": "P"},
                {"id": "t1", "path": str(tiles[1]), "product": "P"},
            ],
            "edits": [{"kind": "gaussian_blur"}, {"kind": "rotate", "range_class": "near"}],
            "region": [32, 32],
            "attack": {
                "filter": {"estimate": {"strategy": "direct", "sources": "self"}},
                "smoothing": {"sigma": 5.0, "kernel": 31},
            },
            "master_seed": 20_26,
            "out_dir": str(tmp_path / out_name),
        }
        path = tmp_path / f"{out_name}.json"
        path.write_text(json.dumps(payload))
        return path

    assert main(["experiment", "--config", str(config("first"))]) == 0
    assert main(["experiment", "--config", str(config("second"))]) == 0

    for name in ("report.csv", "summary.csv"):
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second
    first_images = sorted((tmp_path / "first" / "images").iterdir())
    second_images = sorted((tmp_path / "second" / "images").iterdir())
    assert [p.name for p in first_images] == [p.name for p in second_images]
    for a, b in zip(first_images, second_images):
        assert a.read_bytes() == b.read_bytes()
    _report(11, "experiment reruns are byte-identical (reports, summaries, artifacts)")
