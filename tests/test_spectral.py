import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from helpers import (
    assert_threaded_equals_serial,
    circular_valid_convolve,
    naive_convolve_reflect,
    naive_dft2,
)

from sarfx import (
    AmplitudeImage,
    ComplexImage,
    RadialProfile,
    azimuthal_profile,
    central_flip,
    forward_dft,
    inverse_dft,
    smooth_spectrum,
)
from sarfx.metrics import gaussian_window
from sarfx.spectral import _next_fast_len, gaussian_kernel_1d, profile_to_csv, valid_convolver


def _assert_near_fftconvolve(out, plane, kernel):
    # the circular and the linear transform sizes round differently; 3.7 eps was the
    # largest deviation over 3000 random shapes and windows, 4.0 at 1024²
    from scipy import signal

    bound = 8 * np.finfo(np.float64).eps * np.abs(plane).max() * np.abs(kernel).sum()
    assert np.abs(out - signal.fftconvolve(plane, kernel, "valid")).max() <= bound


def _assert_formed_equal_oracle(convolve, plane, other, kernel):
    # the formed plane, by default the product, is built a row block at a time
    out = convolve(plane, other)
    assert np.array_equal(out, circular_valid_convolve(plane * other, kernel))
    assert out.flags.c_contiguous
    difference = convolve(plane, other, form=np.subtract)
    assert np.array_equal(difference, circular_valid_convolve(plane - other, kernel))


# row counts below, equal to and not a multiple of the convolver's row block;
# the window spans ``axes`` and is one tap wide on any other axis
@pytest.mark.parametrize("shape", [(16, 16), (15, 17), (9, 30), (1, 40), (11, 11), (64, 64),
                                   (130, 70), (300, 400), (1024, 1024)])
@pytest.mark.parametrize("axes", [(1,), (0,), (0, 1)])
def test_valid_convolver_equals_fftconvolve(shape, axes):
    # the pruned in-place transforms against scipy's allocating ones at the same sizes
    rng = np.random.default_rng(sum(shape))
    plane = rng.uniform(0.0, 9.0, shape)
    kernel = rng.uniform(0.0, 1.0, [min(n, 5) if a in axes else 1 for a, n in enumerate(shape)])
    convolve = valid_convolver(shape, kernel)
    out = convolve(plane)
    assert np.array_equal(out, circular_valid_convolve(plane, kernel))
    _assert_near_fftconvolve(out, plane, kernel)
    _assert_formed_equal_oracle(convolve, plane, rng.uniform(0.0, 9.0, shape), kernel)


_SSIM_WINDOW = gaussian_window()
_SMOOTHING_TAPS = gaussian_kernel_1d(100.0, 601)


@pytest.mark.parametrize("shape, kernel, fft_sizes", [
    # one kept row
    ((11, 11), _SSIM_WINDOW, (12, 12)),
    ((11, 40), _SSIM_WINDOW, (12, 40)),
    # the SSIM scale chain of a 1024-pixel tile: no padding row or column
    ((1024, 1024), _SSIM_WINDOW, (1024, 1024)),
    ((512, 512), _SSIM_WINDOW, (512, 512)),
    ((256, 256), _SSIM_WINDOW, (256, 256)),
    ((128, 128), _SSIM_WINDOW, (128, 128)),
    ((64, 64), _SSIM_WINDOW, (64, 64)),
    # row counts not a multiple of the convolver's row block
    ((130, 70), _SSIM_WINDOW, (135, 72)),
    ((300, 400), _SSIM_WINDOW, (300, 400)),
    # a 601-tap window along either axis: the valid part starts 600 in and never wraps
    ((1624, 1024), _SMOOTHING_TAPS[:, None], (1728, 1024)),
    ((1024, 1624), _SMOOTHING_TAPS[None, :], (1024, 1728)),
], ids=["11x11", "11x40", "1024", "512", "256", "128", "64", "130x70", "300x400",
        "601-taps-axis0", "601-taps-axis1"])
def test_valid_convolver_equals_fftconvolve_at_job_sizes(shape, kernel, fft_sizes):
    from scipy import fft as sp_fft

    assert tuple(sp_fft.next_fast_len(m, True) for m in shape) == fft_sizes
    # valid_convolver transforms the kernel with numpy, the oracle with scipy
    assert np.array_equal(np.fft.rfftn(kernel, fft_sizes, axes=(0, 1)), sp_fft.rfftn(kernel, fft_sizes))
    plane = np.random.default_rng(shape[1]).uniform(0.0, 65535.0, shape)
    convolve = valid_convolver(shape, kernel)
    out = convolve(plane)
    assert np.array_equal(out, circular_valid_convolve(plane, kernel))
    _assert_near_fftconvolve(out, plane, kernel)
    other = np.random.default_rng(shape[0]).uniform(0.0, 65535.0, shape)
    _assert_formed_equal_oracle(convolve, plane, other, kernel)


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(11, 96), st.integers(11, 96)),
       taps=st.tuples(st.integers(1, 11), st.integers(1, 11)), seed=st.integers(0, 2**32 - 1))
def test_valid_convolver_is_near_fftconvolve_on_random_shapes(shape, taps, seed):
    rng = np.random.default_rng(seed)
    plane = rng.uniform(0.0, 65535.0, shape)
    kernel = rng.uniform(0.0, 1.0, taps)
    _assert_near_fftconvolve(valid_convolver(shape, kernel)(plane), plane, kernel)


def test_next_fast_len_equals_scipy():
    from scipy import fft as sp_fft

    assert [_next_fast_len(n) for n in range(1, 5001)] == [sp_fft.next_fast_len(n, True) for n in range(1, 5001)]


def test_valid_convolver_takes_numpy_integer_sizes():
    # a shape read off an array may hold numpy integers, which cannot take 30**64 % n
    assert _next_fast_len(np.int64(40)) == 40 and type(_next_fast_len(np.int64(41))) is int
    window = gaussian_window()
    plane = np.random.default_rng(40).uniform(0.0, 9.0, (40, 40))
    out = valid_convolver((np.int64(40), 40), window)(plane)
    assert np.array_equal(out, valid_convolver((40, 40), window)(plane))


def test_constant_image_is_dc_only():
    h, w = 6, 10
    spec = forward_dft(AmplitudeImage(np.full((h, w), 3.5)))
    mag = np.abs(spec.values)
    assert mag[h // 2, w // 2] == pytest.approx(3.5 * h * w, rel=1e-12)
    off_dc = mag.copy()
    off_dc[h // 2, w // 2] = 0.0
    assert np.abs(off_dc).max() < 1e-9


def test_unit_impulse_has_flat_magnitude():
    plane = np.zeros((8, 8))
    plane[0, 0] = 1.0
    mag = np.abs(forward_dft(AmplitudeImage(plane)).values)
    assert np.allclose(mag, 1.0, atol=1e-12)


def test_forward_matches_direct_dft_oracle():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    ours = forward_dft(ComplexImage(z)).values
    oracle = naive_dft2(z)
    assert np.abs(ours - oracle).max() < 1e-9


def test_round_trip_relative_rms():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 100, (16, 16))
    image = AmplitudeImage(x)
    back = inverse_dft(forward_dft(image))
    err = np.sqrt(np.mean(np.abs(back.values - x) ** 2))
    assert err / np.sqrt(np.mean(x**2)) < 1e-10


def test_inverse_trivial_cases():
    zero = inverse_dft(ComplexImage(np.zeros((4, 6), dtype=complex)))
    assert np.abs(zero.values).max() == 0.0

    dc_only = np.zeros((4, 6), dtype=complex)
    dc_only[2, 3] = 24.0  # DC bin carries N*M
    const = inverse_dft(ComplexImage(dc_only))
    assert np.allclose(const.values.real, 1.0, atol=1e-12)
    assert np.allclose(const.values.imag, 0.0, atol=1e-12)


def test_round_trip_complex_32():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    image = ComplexImage(z)
    back = inverse_dft(forward_dft(image))
    assert np.abs(back.values - z).max() < 1e-10


@pytest.mark.parametrize("shape", [(16, 16), (15, 17), (12, 20)])
def test_parseval(shape):
    rng = np.random.default_rng(sum(shape))
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spec = forward_dft(ComplexImage(z))
    lhs = np.sum(np.abs(z) ** 2)
    rhs = np.sum(np.abs(spec.values) ** 2) / (shape[0] * shape[1])
    assert abs(lhs - rhs) / lhs < 1e-8


@pytest.mark.parametrize("shape", [(16, 16), (15, 17), (8, 12)])
def test_real_input_magnitude_central_symmetric(shape):
    rng = np.random.default_rng(shape[0])
    mag = np.abs(forward_dft(AmplitudeImage(rng.uniform(0, 5, shape))).values)
    assert np.abs(mag - central_flip(mag)).max() <= 1e-12 * mag.max()


def _shift_flip_oracle(values):
    # the flip through ifftshift, index reversal, a roll by one and fftshift
    a = np.fft.ifftshift(values)
    return np.fft.fftshift(np.roll(a[::-1, ::-1], (1, 1), axis=(0, 1)))


@pytest.mark.parametrize("shape", [(8, 8), (7, 7), (8, 9), (9, 8), (6, 11), (1, 7), (1, 8), (2, 1)])
def test_central_flip_equals_shift_composition(shape):
    plane = np.random.default_rng(sum(shape)).standard_normal(shape)
    assert np.array_equal(central_flip(plane), _shift_flip_oracle(plane))


def test_central_flip_is_index_negation():
    plane = np.zeros((8, 10))
    plane[4 + 2, 5 + 3] = 1.0  # (+2, +3) in centered coordinates
    flipped = central_flip(plane)
    assert flipped[4 - 2, 5 - 3] == 1.0
    assert flipped.sum() == 1.0
    # involution
    assert np.array_equal(central_flip(flipped), plane)


# ---------------------------------------------------------------------------
# Spectrum smoothing
# ---------------------------------------------------------------------------


def test_smooth_spectrum_is_thread_safe():
    planes = [(np.random.default_rng(seed).uniform(0, 9, shape),)
              for seed, shape in enumerate([(128, 128), (96, 160)] * 3)]
    assert_threaded_equals_serial(lambda mag: smooth_spectrum(mag, 8.0, 61), planes)


def test_smooth_constant_plane_unchanged():
    out = smooth_spectrum(np.full((24, 30), 4.25), sigma=3.0, kernel_size=11)
    assert np.allclose(out, 4.25, atol=1e-12)


def test_smooth_impulse_reproduces_kernel():
    plane = np.zeros((61, 61))
    plane[30, 30] = 1.0
    out = smooth_spectrum(plane, sigma=10.0, kernel_size=61)
    k = gaussian_kernel_1d(10.0, 61)
    assert np.abs(out - np.outer(k, k)).max() < 1e-12


def test_smooth_matches_nested_loop_oracle():
    rng = np.random.default_rng(4)
    plane = rng.uniform(0, 2, (32, 32))
    out = smooth_spectrum(plane, sigma=2.0, kernel_size=9)
    k = gaussian_kernel_1d(2.0, 9)
    oracle = naive_convolve_reflect(plane, np.outer(k, k))
    assert np.abs(out - oracle).max() < 1e-10


@pytest.mark.parametrize("shape, kernel_size, sigma", [
    ((32, 32), 9, 2.0),
    ((9, 16), 7, 1.5),
    ((15, 13), 41, 6.0),  # radius 20: beyond both axes
    ((8, 8), 31, 5.0),  # radius 15: nearly twice the axis
    ((8, 8), 41, 7.0),  # radius 20: beyond twice the axis
    ((5, 4), 61, 10.0),
    ((1, 6), 5, 1.0),
])
def test_smooth_matches_ndimage_reflect(shape, kernel_size, sigma):
    # the FFT path against the direct separable convolution it replaced
    plane = np.random.default_rng(sum(shape) + kernel_size).uniform(0, 5, shape)
    k = gaussian_kernel_1d(sigma, kernel_size)
    oracle = ndimage.convolve1d(plane, k, axis=0, mode="reflect")
    oracle = ndimage.convolve1d(oracle, k, axis=1, mode="reflect")
    out = smooth_spectrum(plane, sigma, kernel_size)
    assert out.shape == shape
    np.testing.assert_allclose(out, oracle, rtol=1e-12, atol=0)


@pytest.mark.parametrize("shape, kernel_size, sigma", [
    ((1024, 1024), 601, 100.0),
    ((40, 30), 601, 100.0),  # the kernel is longer than either axis
])
def test_smooth_matches_oaconvolve(shape, kernel_size, sigma):
    # the plain FFT convolution against the oaconvolve calls it replaced
    from scipy import signal

    plane = np.random.default_rng(kernel_size).uniform(0, 5, shape)
    k = gaussian_kernel_1d(sigma, kernel_size)
    r = kernel_size // 2
    oracle = signal.oaconvolve(np.pad(plane, ((r, r), (0, 0)), "symmetric"), k[:, None], "valid",
                               axes=0)
    oracle = signal.oaconvolve(np.pad(oracle, ((0, 0), (r, r)), "symmetric"), k[None, :], "valid",
                               axes=1)
    np.testing.assert_allclose(smooth_spectrum(plane, sigma, kernel_size), oracle, rtol=1e-13, atol=0)


@pytest.mark.parametrize("shape, kernel_size, sigma", [
    ((1024, 1024), 601, 100.0),  # the job's smoothing
    ((130, 70), 61, 10.0),  # 70 and 130 rows: not multiples of the row block
    ((200, 64), 31, 4.0),
    ((15, 13), 41, 6.0),  # radius 20: beyond both axes
    ((8, 8), 41, 7.0),  # radius 20: beyond twice the axis
    ((1, 6), 5, 1.0),
])
def test_blocked_smoothing_equals_whole_plane_fftconvolve(shape, kernel_size, sigma):
    # the row-blocked passes against the whole-plane transforms they replaced:
    # each pass pads the transposed plane and convolves its rows
    from scipy import signal

    plane = np.random.default_rng(sum(shape) + kernel_size).uniform(0, 5, shape)
    k = gaussian_kernel_1d(sigma, kernel_size)[None, :]
    r = kernel_size // 2
    oracle = plane
    for _ in range(2):
        padded = np.pad(np.ascontiguousarray(oracle.T), ((0, 0), (r, r)), "symmetric")
        oracle = signal.fftconvolve(padded, k, "valid", axes=1)
    assert np.array_equal(smooth_spectrum(plane, sigma, kernel_size), np.maximum(oracle, 0.0))


def test_smooth_rejects_bad_inputs():
    with pytest.raises(ValueError, match="odd"):
        smooth_spectrum(np.ones((8, 8)), sigma=1.0, kernel_size=4)
    with pytest.raises(ValueError, match="sigma"):
        smooth_spectrum(np.ones((8, 8)), sigma=0.0, kernel_size=3)
    with pytest.raises(ValueError, match="nonnegative"):
        smooth_spectrum(-np.ones((8, 8)), sigma=1.0, kernel_size=3)


def test_smooth_preserves_interior_mass():
    rng = np.random.default_rng(5)
    plane = np.zeros((64, 64))
    plane[24:40, 24:40] = rng.uniform(0, 3, (16, 16))  # support away from borders
    out = smooth_spectrum(plane, sigma=1.5, kernel_size=9)
    assert abs(out.sum() - plane.sum()) < 1e-10 * plane.sum()
    assert np.all(out >= 0)


# ---------------------------------------------------------------------------
# Azimuthal profile
# ---------------------------------------------------------------------------


def test_flat_spectrum_gives_flat_profile():
    spec = ComplexImage(np.ones((32, 32), dtype=complex))
    profile = azimuthal_profile(spec)
    populated = profile.counts > 0
    assert np.allclose(profile.values[populated], 1.0, atol=1e-12)


def test_dc_only_profile():
    plane = np.zeros((16, 16), dtype=complex)
    plane[8, 8] = 5.0
    profile = azimuthal_profile(ComplexImage(plane))
    assert profile.values[0] > 0
    assert np.all(profile.values[1:] == 0)


def test_gaussian_spectrum_profile_decreasing_and_matches_binning_oracle():
    n = 33
    yy, xx = np.mgrid[0:n, 0:n]
    r2 = (yy - n // 2) ** 2.0 + (xx - n // 2) ** 2.0
    mag = np.exp(-r2 / (2 * 6.0**2))
    profile = azimuthal_profile(ComplexImage(mag.astype(complex)))

    # direct per-pixel binning oracle
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for i in range(n):
        for j in range(n):
            r = int(round(np.hypot(i - n // 2, j - n // 2)))
            sums[r] = sums.get(r, 0.0) + mag[i, j] ** 2
            counts[r] = counts.get(r, 0) + 1
    for r, total in sums.items():
        assert profile.counts[r] == counts[r]
        assert profile.values[r] == pytest.approx(total / counts[r], rel=1e-12)

    populated = np.flatnonzero(profile.counts > 0)
    vals = profile.values[populated]
    assert np.all(np.diff(vals) < 0)  # strictly decreasing after bin 0


def test_profile_validation_and_csv():
    with pytest.raises(Exception):
        RadialProfile(np.array([0.0, 2.0]), np.array([1.0, 1.0]), np.array([1, 1]))
    profile = azimuthal_profile(ComplexImage(np.ones((4, 4), dtype=complex)))
    text = profile_to_csv(profile)
    lines = text.strip().split("\n")
    assert lines[0] == "radius,mean_sq_magnitude,count"
    assert len(lines) == 1 + profile.bin_centers.size
    assert lines[1] == "0,1.0,1"  # plain numbers, no numpy scalar reprs
