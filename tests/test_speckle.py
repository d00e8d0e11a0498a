import numpy as np
import pytest
from scipy import stats

from sarfx import (
    AmplitudeImage,
    DEFAULT_SIGMA_S,
    MODE_FULL,
    MODE_PHASE_ONLY,
    RasterError,
    azimuthal_profile,
    generate_speckle,
    inject_speckle,
)
from sarfx.speckle import rng


def test_phase_only_unit_modulus():
    field = generate_speckle(8, 8, MODE_PHASE_ONLY, seed=42)
    assert np.abs(np.hypot(field.real, field.imag) - 1.0).max() < 1e-12


def test_full_mode_rayleigh_mean():
    field = generate_speckle(1000, 1000, MODE_FULL, sigma_s=DEFAULT_SIGMA_S, seed=7)
    expected = DEFAULT_SIGMA_S * np.sqrt(np.pi / 2.0)  # ~0.8862
    assert np.hypot(field.real, field.imag).mean() == pytest.approx(expected, abs=0.003)


def test_full_mode_amplitude_variance():
    field = generate_speckle(1000, 1000, MODE_FULL, sigma_s=DEFAULT_SIGMA_S, seed=8)
    expected = (2.0 - np.pi / 2.0) * DEFAULT_SIGMA_S**2
    assert np.hypot(field.real, field.imag).var() == pytest.approx(expected, rel=0.01)


def test_phase_uniformity_ks():
    field = generate_speckle(1000, 1000, MODE_FULL, seed=9)
    phases = np.mod(np.arctan2(field.imag, field.real), 2.0 * np.pi)
    result = stats.kstest(phases.ravel(), stats.uniform(loc=0, scale=2 * np.pi).cdf)
    assert result.pvalue > 0.01


def test_determinism_bit_identical():
    a = generate_speckle(32, 16, MODE_FULL, sigma_s=0.9, seed=1234)
    b = generate_speckle(32, 16, MODE_FULL, sigma_s=0.9, seed=1234)
    assert np.array_equal(a, b)
    c = generate_speckle(32, 16, MODE_FULL, sigma_s=0.9, seed=1235)
    assert not np.array_equal(a.real, c.real)


def test_rng_is_the_keyed_philox_stream_and_checks_its_seed():
    for seed in (0, 7, 2**64 - 1):
        direct = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        assert np.array_equal(rng(seed).random(8), direct.random(8))
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            rng(seed)


def test_mode_and_sigma_validation():
    with pytest.raises(ValueError, match="sigma_s"):
        generate_speckle(4, 4, MODE_FULL, sigma_s=0.0, seed=0)
    with pytest.raises(ValueError, match="mode"):
        generate_speckle(4, 4, "bogus", seed=0)
    for sigma_s in (-1.0, np.inf, np.nan, 10**400):  # 10**400 is finite only as an int
        with pytest.raises(ValueError, match="sigma_s must be positive and finite in full mode"):
            generate_speckle(4, 4, MODE_FULL, sigma_s=sigma_s, seed=0)


def test_inject_zero_amplitude_gives_zero():
    field = generate_speckle(6, 6, MODE_PHASE_ONLY, seed=3)
    out = inject_speckle(AmplitudeImage(np.zeros((6, 6))), field)
    assert np.abs(out).max() == 0.0


def test_inject_ones_keeps_field_phases():
    field = generate_speckle(6, 6, MODE_PHASE_ONLY, seed=4)
    out = inject_speckle(AmplitudeImage(np.ones((6, 6))), field.copy())
    assert np.abs(np.abs(out) - 1.0).max() < 1e-12
    assert np.array_equal(out.real, field.real) and np.array_equal(out.imag, field.imag)


def test_inject_matches_scalar_loop_oracle():
    rng = np.random.default_rng(5)
    amplitude = AmplitudeImage(rng.uniform(0, 50, (16, 16)))
    field = generate_speckle(16, 16, MODE_FULL, seed=6)
    out = inject_speckle(amplitude, field.copy())
    for i in range(16):
        for j in range(16):
            assert out.real[i, j] == pytest.approx(amplitude.values[i, j] * field.real[i, j], abs=1e-12)
            assert out.imag[i, j] == pytest.approx(amplitude.values[i, j] * field.imag[i, j], abs=1e-12)
    # modulus factorizes exactly
    assert np.abs(np.abs(out) - amplitude.values * np.hypot(field.real, field.imag)).max() < 1e-12


@pytest.mark.parametrize("shape", [(8, 8), (7, 9), (1, 6), (5, 1)])
@pytest.mark.parametrize("mode", [MODE_FULL, MODE_PHASE_ONLY])
def test_inject_fill_equals_re_plus_i_im(shape, mode):
    # the products written into the parts of one complex plane against the
    # separate product planes combined as re + 1j*im
    amplitude = AmplitudeImage(np.random.default_rng(8).uniform(0, 50, shape))
    field = generate_speckle(*shape, mode, seed=9)
    a, drawn = amplitude.values, field.copy()
    out = inject_speckle(amplitude, field)
    assert np.array_equal(out, a * drawn.real + 1j * (a * drawn.imag))
    assert np.array_equal(out.real, a * drawn.real) and np.array_equal(out.imag, a * drawn.imag)
    # the handed-over field itself, ready for apply_system to filter in place
    assert out is field and not np.shares_memory(out, a)
    assert out.dtype == np.complex128 and out.flags.c_contiguous and out.flags.writeable


def test_inject_dimension_mismatch():
    field = generate_speckle(4, 4, MODE_PHASE_ONLY, seed=0)
    with pytest.raises(RasterError, match="mismatch"):
        inject_speckle(AmplitudeImage(np.ones((4, 5))), field)


def test_phase_only_spectrum_is_flat():
    # Average the radial profile of |F(constant * field)|^2 over many
    # independent fields; the highest annulus must carry the same mean power
    # as the plane overall.
    from sarfx import forward_dft

    n, trials = 129, 64
    ones = AmplitudeImage(np.ones((n, n)))
    accum = None
    for trial in range(trials):
        field = generate_speckle(n, n, MODE_PHASE_ONLY, seed=10_000 + trial)
        profile = azimuthal_profile(forward_dft(inject_speckle(ones, field)))
        accum = profile.values if accum is None else accum + profile.values
        counts = profile.counts
    mean_profile = accum / trials
    populated = counts > 0
    overall = np.sum(mean_profile * counts) / counts.sum()
    top_ratio = mean_profile[populated][-1] / overall
    assert 0.8 <= top_ratio <= 1.2
