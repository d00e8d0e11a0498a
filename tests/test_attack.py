from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from sarfx import (
    AmplitudeImage,
    DEFAULT_SIGMA_S,
    MODE_FULL,
    MODE_PHASE_ONLY,
    ComplexImage,
    EditOp,
    RasterError,
    TransferFunction,
    apply_system,
    azimuthal_profile,
    central_flip,
    forward_dft,
    generate_speckle,
    histogram_match,
    inject_speckle,
    inverse_dft,
    raised_cosine_filter,
    random_splice,
    run_attack,
    simulate_pristine,
    smooth_reflectivity,
)
from sarfx import attack
from sarfx.sysid import estimate_transfer_function, freq_grid


def _flat_filter(n):
    return TransferFunction(np.ones((n, n)), "known")


def _random_complex(shape, seed):
    rng = np.random.default_rng(seed)
    return ComplexImage(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# apply_system
# ---------------------------------------------------------------------------


def test_all_pass_filter_is_identity():
    signal = _random_complex((32, 32), 0)
    out = apply_system(signal, _flat_filter(32))
    err = np.sqrt(np.mean(np.abs(out.values - signal.values) ** 2))
    assert err / np.sqrt(np.mean(np.abs(signal.values) ** 2)) < 1e-10


def test_zero_response_annihilates():
    signal = _random_complex((16, 16), 1)
    out = apply_system(signal, np.zeros((16, 16)))
    assert np.abs(out.values).max() == 0.0


def test_ideal_low_pass_kills_out_of_band_tone():
    n, radius = 64, 10
    f = freq_grid(n)
    rr = np.hypot(f[:, None], f[None, :])
    h = TransferFunction((rr <= radius).astype(np.float64), "known")
    x = np.arange(n)
    tone = np.exp(2j * np.pi * 20 * x[None, :] / n) * np.ones((n, 1))  # fx=20 > radius
    out = apply_system(ComplexImage(tone), h)
    assert np.sqrt(np.mean(np.abs(out.values) ** 2)) < 1e-8 * np.sqrt(np.mean(np.abs(tone) ** 2))
    inband = np.exp(2j * np.pi * 5 * x[None, :] / n) * np.ones((n, 1))
    kept = apply_system(ComplexImage(inband), h)
    assert np.abs(kept.values - inband).max() < 1e-10


@pytest.mark.parametrize("shape", [(32, 32), (33, 33), (24, 41), (1, 7)])
@pytest.mark.parametrize("bare", [False, True])
def test_apply_system_equals_centered_round_trip(shape, bare):
    # filtering the raw spectrum by ifftshift(H) against the DC-centered round trip it replaced
    rng = np.random.default_rng(shape[0] * shape[1])
    signal = _random_complex(shape, shape[1])
    h = rng.uniform(0.0, 3.0, shape)
    if not bare:
        h = (h + central_flip(h)) / 2.0
        h = TransferFunction(h / h.max())
    values = h.values if isinstance(h, TransferFunction) else h
    old = inverse_dft(ComplexImage(forward_dft(signal).values * values))
    new = apply_system(signal, h)
    assert np.array_equal(new.values, old.values)


@pytest.mark.parametrize("shape", [(32, 32), (33, 33), (24, 41), (1, 7), (7, 1)])
def test_in_place_transforms_equal_allocating_ones(shape):
    # apply_system's in-place fft2 and its per-axis in-place inverse against the
    # allocating fft2 and ifft2
    z = _random_complex(shape, 5).values
    buf = z.copy()
    np.fft.fft2(buf, out=buf)
    assert np.array_equal(buf, np.fft.fft2(z))
    np.fft.ifft(buf, axis=1, out=buf)
    np.fft.ifft(buf, axis=0, out=buf)
    assert np.array_equal(buf, np.fft.ifft2(np.fft.fft2(z)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_apply_system_rejects_nonfinite_spectrum(bad):
    h = np.ones((8, 8))
    h[3, 5] = bad
    with pytest.raises(RasterError, match="^spectrum contains NaN or Inf values$"):
        apply_system(_random_complex((8, 8), 4), h)


def test_apply_system_dimension_mismatch():
    with pytest.raises(RasterError, match="mismatch"):
        apply_system(_random_complex((8, 8), 2), _flat_filter(16))
    with pytest.raises(RasterError, match="mismatch"):
        apply_system(_random_complex((8, 8), 2).values.copy(), _flat_filter(16))


def test_apply_system_filters_a_handed_over_plane_in_place():
    signal = _random_complex((16, 12), 6)
    h = np.random.default_rng(6).uniform(0.0, 1.0, (16, 12))
    plane = signal.values.copy()
    out = apply_system(plane, h)
    assert np.shares_memory(out.values, plane)
    assert np.array_equal(out.values, apply_system(signal, h).values)


def test_apply_system_leaves_a_complex_image_unchanged():
    signal = _random_complex((16, 12), 7)
    before = signal.values.copy()
    out = apply_system(signal, np.random.default_rng(7).uniform(0.0, 1.0, (16, 12)))
    assert not np.shares_memory(out.values, signal.values)
    assert np.array_equal(signal.values, before)


_UNOWNABLE_PLANES = {
    "read-only": lambda z: z,  # a ComplexImage's own plane
    "float64": lambda z: z.real.copy(),
    "complex64": lambda z: z.astype(np.complex64),
    "strided": lambda z: np.concatenate([z, z], axis=1)[:, ::2],
    "fortran-order": lambda z: np.asfortranarray(np.concatenate([z, z], axis=1)[:, :8]),
    "three-dimensional": lambda z: z.copy()[None],
    "list": lambda z: z.tolist(),
}


@pytest.mark.parametrize("case", sorted(_UNOWNABLE_PLANES))
def test_apply_system_rejects_a_plane_it_cannot_filter_in_place(case):
    plane = _UNOWNABLE_PLANES[case](_random_complex((8, 8), 8).values)
    with pytest.raises(RasterError, match="writable C-contiguous 2D complex128 plane"):
        apply_system(plane, np.ones((8, 8)))


# ---------------------------------------------------------------------------
# histogram matching
# ---------------------------------------------------------------------------


def test_match_to_self_is_identity():
    image = AmplitudeImage(np.random.default_rng(3).uniform(0, 100, (16, 16)))
    out = histogram_match(image, image)
    assert np.array_equal(out.values, image.values)


def test_monotone_transform_recovered_exactly():
    rng = np.random.default_rng(4)
    reference = AmplitudeImage(rng.uniform(0, 500, (24, 24)))
    source = AmplitudeImage(2.0 * reference.values + 10.0)
    out = histogram_match(source, reference)
    assert np.array_equal(out.values, reference.values)


def test_output_multiset_equals_reference():
    rng = np.random.default_rng(5)
    source = AmplitudeImage(rng.uniform(0, 9, (12, 12)))
    reference = AmplitudeImage(rng.uniform(50, 60, (12, 12)))
    out = histogram_match(source, reference)
    assert np.array_equal(np.sort(out.values, axis=None), np.sort(reference.values, axis=None))


def test_histogram_match_idempotent():
    rng = np.random.default_rng(6)
    a = AmplitudeImage(rng.uniform(0, 10, (16, 16)))
    b = AmplitudeImage(rng.uniform(5, 15, (16, 16)))
    once = histogram_match(a, b)
    twice = histogram_match(once, b)
    assert np.array_equal(once.values, twice.values)


def test_histogram_match_with_ties_is_stable():
    source = AmplitudeImage(np.array([[5.0, 5.0, 1.0], [5.0, 2.0, 2.0]]))
    reference = AmplitudeImage(np.array([[10.0, 20.0, 30.0], [40.0, 50.0, 60.0]]))
    out = histogram_match(source, reference)
    # ranks: 1.0 -> 10; ties 2.0 -> 20,30 in row-major order; ties 5.0 -> 40,50,60
    assert np.array_equal(out.values, np.array([[40.0, 50.0, 10.0], [60.0, 20.0, 30.0]]))


def _signed_zeros(rng, shape):
    return rng.choice([0.0, -0.0, 1.0, 2.5], shape)


def _ulps_above(values, steps):
    # the double ``steps`` ulps above each nonnegative value: its bits plus steps
    return (np.asarray(values, np.float64).view(np.uint64) + np.asarray(steps, np.uint64)).view(np.float64)


def _shared_high_bits(rng, shape):
    # a few ulps apart around a subnormal, 1.0 and 1e300: distinct values share their
    # kept high bits, among exact ties
    return _ulps_above(rng.choice([1e-310, 1.0, 1e300], shape), rng.integers(0, 6, shape))


def _runs_of_four(rng, shape):
    # tie-free, every value one of four 1-ulp neighbours, in shuffled positions
    size = shape[0] * shape[1]
    values = _ulps_above(np.repeat(rng.uniform(0, 100, -(-size // 4)), 4)[:size], np.arange(size) % 4)
    rng.shuffle(values)
    return values.reshape(shape)


_TIE_CASES = {
    "tie-free": lambda rng, shape: rng.uniform(0, 100, shape),
    "one-in-seven-tied": lambda rng, shape: np.where(
        rng.random(shape) < 1 / 7, 42.0, rng.uniform(0, 100, shape)),
    "five-levels": lambda rng, shape: rng.integers(0, 5, shape).astype(np.float64),
    "all-equal": lambda rng, shape: np.full(shape, 7.0),
    "signed-zeros": _signed_zeros,
    "shared-high-bits": _shared_high_bits,
    "runs-of-four": _runs_of_four,
}


def _stable_argsort_match(source, reference):
    expected = np.empty(source.size)
    expected[np.argsort(source.ravel(), kind="stable")] = np.sort(reference, axis=None)
    return expected.reshape(source.shape)


@pytest.mark.parametrize("case", sorted(_TIE_CASES))
def test_histogram_match_equals_stable_argsort(case):
    # the packed-key sort against the stable argsort it replaced
    rng = np.random.default_rng(len(case))
    source = _TIE_CASES[case](rng, (300, 200))
    reference = rng.uniform(0, 1000, (300, 200))
    out = histogram_match(AmplitudeImage(source), AmplitudeImage(reference))
    assert np.array_equal(out.values, _stable_argsort_match(source, reference))
    if case == "signed-zeros":
        assert np.signbit(source).any()


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (3, 3), (1, 65), (17, 17)])
@pytest.mark.parametrize("case", ["shared-high-bits", "signed-zeros", "tie-free"])
def test_histogram_match_equals_stable_argsort_at_small_sizes(case, shape):
    # n - 1 of 0, 1, 8, 64 and 288 pixels: the index field is 0, 1, 4, 7 and 9 bits
    rng = np.random.default_rng(shape[1])
    source = _TIE_CASES[case](rng, shape)
    reference = rng.uniform(0, 1000, shape)
    out = histogram_match(source.copy(), AmplitudeImage(reference))
    assert np.array_equal(out.values, _stable_argsort_match(source, reference))


_NEAR_VALUES = [0.0, 5e-324, 1e-310, 1.0, 1.5, 1e300]


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
       bases=st.lists(st.sampled_from(_NEAR_VALUES) | st.floats(0.0, 1e308), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_histogram_match_equals_stable_argsort_property(shape, bases, seed):
    # values a few ulps above a few bases: exact ties, signed zeros and distinct
    # values that share their kept high bits, in any mix
    rng = np.random.default_rng(seed)
    steps = rng.integers(0, 4, shape) * (rng.random(shape) < 0.7)
    source = _ulps_above(np.array(bases)[rng.integers(0, len(bases), shape)], steps)
    source[(source == 0.0) & (rng.random(shape) < 0.5)] = -0.0
    reference = rng.uniform(0, 1000, shape)
    out = histogram_match(AmplitudeImage(source), AmplitudeImage(reference))
    assert np.array_equal(out.values, _stable_argsort_match(source, reference))


def test_histogram_match_into_a_handed_over_plane():
    # run_attack hands |z| over as a bare plane and the match scatters into it; on a
    # tie-heavy plane it equals the match of an AmplitudeImage, which stays untouched
    rng = np.random.default_rng(11)
    source = AmplitudeImage(rng.integers(0, 5, (300, 200)).astype(np.float64))
    reference = AmplitudeImage(rng.uniform(0, 1000, (300, 200)), 12)
    kept = source.values.copy()
    expected = histogram_match(source, reference)
    assert np.array_equal(source.values, kept)
    plane = source.values.copy()
    out = histogram_match(plane, reference)
    assert np.array_equal(out.values, expected.values)
    assert np.shares_memory(out.values, plane)
    assert out.dynamic_range_bits == expected.dynamic_range_bits == 12


def test_histogram_match_size_mismatch():
    with pytest.raises(RasterError, match="count"):
        histogram_match(AmplitudeImage(np.ones((4, 4))), AmplitudeImage(np.ones((4, 5))))


_UNMATCHABLE_PLANES = {
    "integer": lambda x: np.array([[4, 3], [2, 1]]),
    "read-only": lambda x: AmplitudeImage(x).values,
    "float32": lambda x: x.astype(np.float32),
    "strided": lambda x: np.concatenate([x, x], axis=1)[:, ::2],
    "one-dimensional": lambda x: x.ravel(),
    "list": lambda x: x.tolist(),
}


@pytest.mark.parametrize("case", sorted(_UNMATCHABLE_PLANES))
def test_histogram_match_rejects_a_plane_it_cannot_scatter_into(case):
    # an integer plane took its match as the reference values cast to int: [[3, 2], [1, 0]]
    plane = _UNMATCHABLE_PLANES[case](np.array([[4.0, 3.0], [2.0, 1.0]]))
    reference = AmplitudeImage(np.array([[0.5, 1.5], [2.5, 3.5]]))
    with pytest.raises(RasterError, match="^source must be an AmplitudeImage or a writable "
                                          "C-contiguous 2D float64 plane$"):
        histogram_match(plane, reference)


@pytest.mark.parametrize("bad", [-1.0, -5e-324, np.nan, -np.nan, np.inf, -np.inf])
def test_histogram_match_rejects_a_negative_or_nonfinite_plane(bad):
    plane = np.random.default_rng(12).uniform(0, 10, (6, 5))
    plane[4, 1] = bad
    kept = plane.copy()
    with pytest.raises(RasterError, match="^source values must be finite and nonnegative$"):
        histogram_match(plane, AmplitudeImage(np.ones((6, 5))))
    assert np.array_equal(plane, kept, equal_nan=True)


# ---------------------------------------------------------------------------
# run_attack
# ---------------------------------------------------------------------------


def test_attack_preserves_value_multiset():
    image = AmplitudeImage(np.random.default_rng(7).uniform(100, 2000, (64, 64)))
    attacked = run_attack(image, _flat_filter(64), 1)
    assert np.array_equal(np.sort(attacked.values, axis=None), np.sort(image.values, axis=None))
    assert attacked.shape == image.shape
    assert attacked.dynamic_range_bits == image.dynamic_range_bits

    # under a real (mixing) low-pass the per-pixel values genuinely move,
    # while the multiset stays pinned by the rank map
    low_pass = raised_cosine_filter(64, 0.6)
    mixed = run_attack(image, low_pass, 1)
    assert np.array_equal(np.sort(mixed.values, axis=None), np.sort(image.values, axis=None))
    assert np.mean(mixed.values != image.values) > 0.9


def test_attack_on_zero_image_is_zero():
    image = AmplitudeImage(np.zeros((32, 32)))
    attacked = run_attack(image, _flat_filter(32), 2)
    assert np.abs(attacked.values).max() == 0.0


def test_attack_deterministic():
    image = AmplitudeImage(np.random.default_rng(8).uniform(0, 100, (32, 32)))
    h = _flat_filter(32)
    a = run_attack(image, h, 33)
    b = run_attack(image, h, 33)
    assert np.array_equal(a.values, b.values)


def test_attack_without_matching_skips_rank_map():
    image = AmplitudeImage(np.random.default_rng(9).uniform(100, 200, (32, 32)))
    h = _flat_filter(32)
    speckled = inject_speckle(image, generate_speckle(32, 32, seed=3))
    filtered = apply_system(speckled, h)
    assert np.array_equal(run_attack(image, h, 3, match_histogram=False).values, filtered.amplitude().values)


@pytest.mark.parametrize("mode", [MODE_FULL, MODE_PHASE_ONLY])
def test_attack_is_speckle_then_filter_then_match(mode):
    # the attacked image against the chain run stage by stage
    image = AmplitudeImage(np.random.default_rng(10).uniform(0, 4000, (48, 48)), 12)
    h = raised_cosine_filter(48, 0.6)
    field = generate_speckle(48, 48, mode, DEFAULT_SIGMA_S, seed=5)
    filtered = apply_system(inject_speckle(image, field), h).amplitude(12)
    unmatched = run_attack(image, h, 5, speckle_mode=mode, match_histogram=False)
    assert np.array_equal(unmatched.values, filtered.values)
    assert unmatched.dynamic_range_bits == 12
    attacked = run_attack(image, h, 5, speckle_mode=mode)
    assert np.array_equal(attacked.values, histogram_match(filtered, image).values)
    assert attacked.dynamic_range_bits == 12


_STAGES = ("generate_speckle", "inject_speckle", "apply_system", "histogram_match")


def test_attack_calls_each_stage_through_its_module_binding_once(monkeypatch):
    # the benchmark's span tracer times the attack's layers by rebinding these names
    calls = Counter()
    for name in _STAGES:
        def counted(*args, _name=name, _stage=getattr(attack, name), **kwargs):
            calls[_name] += 1
            return _stage(*args, **kwargs)
        monkeypatch.setattr(attack, name, counted)
    image = AmplitudeImage(np.random.default_rng(11).uniform(0, 100, (16, 16)))
    run_attack(image, _flat_filter(16), 6)
    assert calls == {name: 1 for name in _STAGES}


def test_attack_with_estimation_sources():
    # the attack takes H; estimation is its own stage, run first
    h_true = raised_cosine_filter(64, 0.5)
    pristine = simulate_pristine(smooth_reflectivity(64, 1), h_true, seed=11)
    h_est = estimate_transfer_function([pristine], "direct", sigma=3.0, kernel_size=19)
    assert h_est.shape == (64, 64)
    assert h_est.values.max() == 1.0
    image = pristine.amplitude()
    attacked = run_attack(image, h_est, 4)
    assert np.array_equal(np.sort(attacked.values, axis=None), np.sort(image.values, axis=None))


def test_attack_rejects_an_unknown_speckle_mode():
    image = AmplitudeImage(np.ones((8, 8)))
    with pytest.raises(ValueError, match="unknown speckle mode 'sideways'"):
        run_attack(image, _flat_filter(8), 0, speckle_mode="sideways")


def test_attack_rejects_a_response_of_another_shape():
    image = AmplitudeImage(np.ones((8, 8)))
    with pytest.raises(RasterError, match=r"transfer function \(8, 9\) does not match image \(8, 8\)"):
        run_attack(image, TransferFunction(np.ones((8, 9)), "known"), 0)


def test_attack_keeps_spliced_content():
    h_true = raised_cosine_filter(128, 0.8)
    tile = simulate_pristine(smooth_reflectivity(128, 2), h_true, seed=21).amplitude()
    bright = AmplitudeImage(tile.values * 3.0)  # clearly different donor content
    spliced, mask, _ = random_splice([bright, tile], (48, 48), EditOp("none"), seed=6, target_index=1)
    h_est = estimate_transfer_function([simulate_pristine(smooth_reflectivity(128, 3), h_true, seed=22)],
                                       "direct", sigma=5.0, kernel_size=31)
    attacked = run_attack(spliced, h_est, 7)
    inside = mask.values.astype(bool)
    mad_inside = np.mean(np.abs(attacked.values[inside] - spliced.values[inside]))
    mad_outside = np.mean(np.abs(attacked.values[~inside] - spliced.values[~inside]))
    assert mad_inside < 3.0 * mad_outside


# ---------------------------------------------------------------------------
# sarfx.scene: smooth_reflectivity, raised_cosine_filter, simulate_pristine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, seed", [(64, 1), (128, 4), (256, 99), (512, 7)])
def test_smooth_reflectivity_equals_ndimage_scene(n, seed):
    # the scene as first drawn, on ndimage's Gaussian filter
    from scipy import ndimage

    base = ndimage.gaussian_filter(np.random.default_rng(seed).standard_normal((n, n)), n / 24.0)
    base = (base - base.min()) / (base.max() - base.min())
    assert np.array_equal(smooth_reflectivity(n, seed).values, (0.25 + base) * 2000.0)


def test_raised_cosine_filter_is_a_unit_gain_low_pass():
    h = raised_cosine_filter(64, 0.5)
    assert h.strategy == "known" and h.values[32, 32] == h.values.max() == 1.0
    assert np.all(h.values[:, :16] == 0.0) and np.all(h.values[:16] == 0.0)  # |f| > 16 bins


def test_simulated_amplitude_is_rayleigh():
    c = 700.0
    scene = AmplitudeImage(np.full((128, 128), c))
    pristine = simulate_pristine(scene, _flat_filter(128), seed=30)
    amplitudes = np.abs(pristine.values).ravel()
    result = stats.kstest(amplitudes, stats.rayleigh(scale=c * DEFAULT_SIGMA_S).cdf)
    assert result.pvalue > 0.01


def test_simulate_pristine_zero_reflectivity():
    out = simulate_pristine(AmplitudeImage(np.zeros((16, 16))), _flat_filter(16), seed=31)
    assert np.abs(out.values).max() < 1e-12


def test_scene_spectrum_tracks_response():
    h_true = raised_cosine_filter(128, 0.5)
    scene = smooth_reflectivity(128, 4)
    pristine = simulate_pristine(scene, h_true, seed=32)
    profile = azimuthal_profile(forward_dft(pristine))
    reference = azimuthal_profile(ComplexImage(h_true.values))
    n = min(profile.values.size, reference.values.size)
    corr = np.corrcoef(profile.values[:n], reference.values[:n])[0, 1]
    assert corr >= 0.9
