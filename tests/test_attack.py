import numpy as np
import pytest
from scipy import stats

from helpers import raised_cosine_filter, smooth_reflectivity

from sarfx import (
    AmplitudeImage,
    AttackConfig,
    ComplexImage,
    EditOp,
    RasterError,
    Spectrum,
    TransferFunction,
    apply_system,
    azimuthal_profile,
    central_flip,
    forward_dft,
    histogram_match,
    inverse_dft,
    random_splice,
    run_attack,
    simulate_pristine,
)
from sarfx.sysid import estimate_transfer_function, freq_grid


def _flat_filter(n):
    return TransferFunction(np.ones((n, n)), "known")


def _random_complex(shape, seed):
    rng = np.random.default_rng(seed)
    return ComplexImage(rng.standard_normal(shape), rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# apply_system
# ---------------------------------------------------------------------------


def test_all_pass_filter_is_identity():
    signal = _random_complex((32, 32), 0)
    out = apply_system(signal, _flat_filter(32))
    err = np.sqrt(np.mean(np.abs(out.to_complex() - signal.to_complex()) ** 2))
    assert err / np.sqrt(np.mean(np.abs(signal.to_complex()) ** 2)) < 1e-10


def test_zero_response_annihilates():
    signal = _random_complex((16, 16), 1)
    out = apply_system(signal, np.zeros((16, 16)))
    assert np.abs(out.to_complex()).max() == 0.0


def test_ideal_low_pass_kills_out_of_band_tone():
    n, radius = 64, 10
    f = freq_grid(n)
    rr = np.hypot(f[:, None], f[None, :])
    h = TransferFunction((rr <= radius).astype(np.float64), "known")
    x = np.arange(n)
    tone = np.exp(2j * np.pi * 20 * x[None, :] / n) * np.ones((n, 1))  # fx=20 > radius
    out = apply_system(ComplexImage(tone.real, tone.imag), h)
    assert np.sqrt(np.mean(np.abs(out.to_complex()) ** 2)) < 1e-8 * np.sqrt(np.mean(np.abs(tone) ** 2))
    inband = np.exp(2j * np.pi * 5 * x[None, :] / n) * np.ones((n, 1))
    kept = apply_system(ComplexImage(inband.real, inband.imag), h)
    assert np.abs(kept.to_complex() - inband).max() < 1e-10


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
    old = inverse_dft(Spectrum(forward_dft(signal).values * values))
    new = apply_system(signal, h)
    assert np.array_equal(new.re, old.re) and np.array_equal(new.im, old.im)


@pytest.mark.parametrize("shape", [(32, 32), (33, 33), (24, 41), (1, 7), (7, 1)])
def test_in_place_transforms_equal_allocating_ones(shape):
    # apply_system's in-place fft2 and its per-axis in-place inverse against the
    # allocating fft2 and ifft2
    z = _random_complex(shape, 5).to_complex()
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


_TIE_CASES = {
    "tie-free": lambda rng, shape: rng.uniform(0, 100, shape),
    "one-in-seven-tied": lambda rng, shape: np.where(
        rng.random(shape) < 1 / 7, 42.0, rng.uniform(0, 100, shape)),
    "five-levels": lambda rng, shape: rng.integers(0, 5, shape).astype(np.float64),
    "all-equal": lambda rng, shape: np.full(shape, 7.0),
    "signed-zeros": _signed_zeros,
}


@pytest.mark.parametrize("case", sorted(_TIE_CASES))
def test_histogram_match_equals_stable_argsort(case):
    # the unstable sort plus tie re-sort against the stable argsort it replaced
    rng = np.random.default_rng(len(case))
    source = _TIE_CASES[case](rng, (300, 200))
    reference = rng.uniform(0, 1000, (300, 200))
    expected = np.empty(source.size)
    expected[np.argsort(source.ravel(), kind="stable")] = np.sort(reference, axis=None)
    out = histogram_match(AmplitudeImage(source), AmplitudeImage(reference))
    assert np.array_equal(out.values, expected.reshape(source.shape))
    if case == "signed-zeros":
        assert np.signbit(source).any()


def test_histogram_match_size_mismatch():
    with pytest.raises(RasterError, match="count"):
        histogram_match(AmplitudeImage(np.ones((4, 4))), AmplitudeImage(np.ones((4, 5))))


# ---------------------------------------------------------------------------
# run_attack
# ---------------------------------------------------------------------------


def test_attack_preserves_value_multiset():
    image = AmplitudeImage(np.random.default_rng(7).uniform(100, 2000, (64, 64)))
    result = run_attack(image, AttackConfig(seed=1, transfer_function=_flat_filter(64)))
    assert np.array_equal(
        np.sort(result.attacked.values, axis=None), np.sort(image.values, axis=None)
    )
    assert result.attacked.shape == image.shape
    assert result.attacked.dynamic_range_bits == image.dynamic_range_bits

    # under a real (mixing) low-pass the per-pixel values genuinely move,
    # while the multiset stays pinned by the rank map
    low_pass = raised_cosine_filter(64, 0.6)
    mixed = run_attack(image, AttackConfig(seed=1, transfer_function=low_pass))
    assert np.array_equal(
        np.sort(mixed.attacked.values, axis=None), np.sort(image.values, axis=None)
    )
    assert np.mean(mixed.attacked.values != image.values) > 0.9


def test_attack_on_zero_image_is_zero():
    image = AmplitudeImage(np.zeros((32, 32)))
    result = run_attack(image, AttackConfig(seed=2, transfer_function=_flat_filter(32)))
    assert np.abs(result.attacked.values).max() == 0.0


def test_attack_deterministic():
    image = AmplitudeImage(np.random.default_rng(8).uniform(0, 100, (32, 32)))
    cfg = AttackConfig(seed=33, transfer_function=_flat_filter(32))
    a = run_attack(image, cfg)
    b = run_attack(image, cfg)
    assert np.array_equal(a.attacked.values, b.attacked.values)
    assert np.array_equal(a.speckled.re, b.speckled.re)


def test_attack_without_matching_skips_rank_map():
    image = AmplitudeImage(np.random.default_rng(9).uniform(100, 200, (32, 32)))
    cfg = AttackConfig(seed=3, transfer_function=_flat_filter(32), histogram_match=False)
    result = run_attack(image, cfg)
    assert np.array_equal(result.attacked.values, result.filtered_amplitude.values)


def test_attack_with_estimation_sources():
    # the attack takes H; estimation is its own stage, run first
    h_true = raised_cosine_filter(64, 0.5)
    pristine = simulate_pristine(smooth_reflectivity(64, 1), h_true, seed=11)
    h_est = estimate_transfer_function([pristine], "direct", sigma=3.0, kernel_size=19)
    result = run_attack(pristine.amplitude(), AttackConfig(seed=4, transfer_function=h_est))
    assert result.transfer_function is h_est
    assert result.transfer_function.shape == (64, 64)
    assert result.transfer_function.values.max() == 1.0


def test_attack_config_validation():
    with pytest.raises(TypeError, match="transfer_function"):
        AttackConfig(seed=0)
    with pytest.raises(ValueError, match="speckle mode"):
        AttackConfig(seed=0, speckle_mode="sideways", transfer_function=_flat_filter(8))


def test_attack_keeps_spliced_content():
    h_true = raised_cosine_filter(128, 0.8)
    tile = simulate_pristine(smooth_reflectivity(128, 2), h_true, seed=21).amplitude()
    bright = AmplitudeImage(tile.values * 3.0)  # clearly different donor content
    spliced, mask, _ = random_splice([bright, tile], (48, 48), EditOp("none"), seed=6, target_index=1)
    h_est = estimate_transfer_function([simulate_pristine(smooth_reflectivity(128, 3), h_true, seed=22)],
                                       "direct", sigma=5.0, kernel_size=31)
    attacked = run_attack(spliced, AttackConfig(seed=7, transfer_function=h_est)).attacked
    inside = mask.values.astype(bool)
    mad_inside = np.mean(np.abs(attacked.values[inside] - spliced.values[inside]))
    mad_outside = np.mean(np.abs(attacked.values[~inside] - spliced.values[~inside]))
    assert mad_inside < 3.0 * mad_outside


# ---------------------------------------------------------------------------
# simulate_pristine
# ---------------------------------------------------------------------------


def test_simulated_amplitude_is_rayleigh():
    c, sigma_s = 700.0, 2.0**-0.5
    scene = AmplitudeImage(np.full((128, 128), c))
    pristine = simulate_pristine(scene, _flat_filter(128), seed=30, sigma_s=sigma_s)
    amplitudes = np.abs(pristine.to_complex()).ravel()
    result = stats.kstest(amplitudes, stats.rayleigh(scale=c * sigma_s).cdf)
    assert result.pvalue > 0.01


def test_simulate_pristine_zero_reflectivity():
    out = simulate_pristine(AmplitudeImage(np.zeros((16, 16))), _flat_filter(16), seed=31)
    assert np.abs(out.to_complex()).max() < 1e-12


def test_scene_spectrum_tracks_response():
    h_true = raised_cosine_filter(128, 0.5)
    scene = smooth_reflectivity(128, 4)
    pristine = simulate_pristine(scene, h_true, seed=32)
    profile = azimuthal_profile(forward_dft(pristine))
    reference = azimuthal_profile(Spectrum(h_true.values.astype(complex)))
    n = min(profile.values.size, reference.values.size)
    corr = np.corrcoef(profile.values[:n], reference.values[:n])[0, 1]
    assert corr >= 0.9
