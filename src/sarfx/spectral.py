"""Discrete Fourier transform contract, spectrum smoothing, and radial profiling.

Convention, fixed once for the whole package so golden values are portable:
no scaling on the forward transform, 1/(N*M) on the inverse, and spectra are
stored DC-centered (bin ``(H//2, W//2)`` is DC).
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .raster import AmplitudeImage, ComplexImage, RasterError
from .tables import csv_text


@dataclass(frozen=True)
class RadialProfile:
    """Mean squared spectral magnitude per integer-radius annulus around DC."""

    bin_centers: np.ndarray
    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        centers = np.asarray(self.bin_centers, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if not (centers.shape == values.shape == counts.shape) or centers.ndim != 1:
            raise RasterError("profile arrays must be 1D and congruent")
        if np.any(counts < 0) or np.any(values < 0):
            raise RasterError("profile counts and values must be nonnegative")
        if centers.size and not np.allclose(np.diff(centers), 1.0):
            raise RasterError("profile bins must be contiguous with unit width")
        for name, arr in (("bin_centers", centers), ("values", values), ("counts", counts)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def forward_dft(image) -> ComplexImage:
    """Unnormalized forward 2D DFT of an image, returned DC-centered as a complex
    plane with the dimensions of its source."""
    if isinstance(image, (ComplexImage, AmplitudeImage)):
        image = image.values
    return ComplexImage(np.fft.fftshift(np.fft.fft2(np.asarray(image, np.complex128))), copy=False)


def inverse_dft(spectrum: ComplexImage) -> ComplexImage:
    """Inverse 2D DFT with 1/(N*M) scaling; exact inverse of :func:`forward_dft`."""
    return ComplexImage(np.fft.ifft2(np.fft.ifftshift(spectrum.values)), copy=False)


def freq_grid(n: int) -> np.ndarray:
    """DC-centered frequency bins for an n-sample axis."""
    return np.arange(n, dtype=np.float64) - n // 2


def central_flip(values: np.ndarray) -> np.ndarray:
    """Map a DC-centered plane through f -> -f (index negation modulo size): the
    reversed plane rolled by one along each even axis, in one copy."""
    values = np.asarray(values)
    h, w = values.shape
    return np.roll(values[::-1, ::-1], (1 - h % 2, 1 - w % 2), axis=(0, 1))


def check_gaussian_kernel(sigma, size) -> None:
    """Reject a ``size`` that is not a positive odd integer and a ``sigma`` that
    is not a finite positive number; an argument given as None is not checked."""
    if size is not None and (isinstance(size, bool) or not isinstance(size, numbers.Integral)
                             or size < 1 or size % 2 != 1):
        raise ValueError(f"kernel size must be a positive odd integer, got {size!r}")
    if sigma is not None and (isinstance(sigma, bool) or not isinstance(sigma, numbers.Real)
                              or not 0 < sigma <= sys.float_info.max):
        raise ValueError(f"sigma must be a positive number, got {sigma!r}")


def gaussian_kernel_1d(sigma: float, size: int) -> np.ndarray:
    """Unit-sum sampled Gaussian of odd length ``size``."""
    check_gaussian_kernel(sigma, size)
    x = np.arange(size, dtype=np.float64) - size // 2
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


_BLOCK_ROWS = 64  # rows per block of the smoothing; rows transform alone, so any count is exact


def _smooth_rows(src, kernel, out):
    """Each row of ``src``, padded symmetrically at any width (the 2N-periodic half-sample
    extension) and convolved with the symmetric odd-length ``kernel``, into the same row of
    ``out``, maybe a transposed view: DCT-II coefficient m scaled by the kernel's cosine
    response K_m (Martucci 1994). The DCT is the length-N ``rfft`` V of the row reordered as
    ``[x0, x2, ..., x3, x1]`` (Makhoul 1980), where it is ``V -> alpha V + beta conj(V)``."""
    n, half, taps = src.shape[1], (src.shape[1] + 1) // 2, np.arange(len(kernel)) - len(kernel) // 2
    cosine = np.fft.rfft(np.bincount(taps % (2 * n), kernel, 2 * n)).real
    m = np.arange(n // 2 + 1)
    alpha = (cosine[m] + cosine[n - m]) / 2
    beta = np.exp(1j * np.pi * m / n) * (cosine[m] - cosine[n - m]) / 2
    odd = slice(n - 1 - n % 2, 0, -2)  # the odd positions, last first
    for i in range(0, len(src), _BLOCK_ROWS):
        spectrum = np.fft.rfft(src[i:i + _BLOCK_ROWS][:, np.r_[0:n:2, odd]], axis=1)
        conj = spectrum.conj()  # in place from here: fewer block temporaries
        conj *= beta
        spectrum *= alpha
        spectrum += conj
        rows, dest = np.fft.irfft(spectrum, n, axis=1), out[i:i + _BLOCK_ROWS]
        dest[:, ::2], dest[:, odd] = rows[:, :half], rows[:, half:]


def smooth_spectrum(mag: np.ndarray, sigma: float, kernel_size: int) -> np.ndarray:
    """Convolve a magnitude plane with a unit-sum Gaussian, reflective padding.

    Same-size output; the separable kernel keeps values nonnegative and, on
    interior-supported inputs, preserves total mass. Each axis in turn is a product in
    the DCT basis (:func:`_smooth_rows`), equal to ndimage's ``reflect`` at any radius;
    the first pass writes the input's columns transposed, the second runs in place.
    """
    mag = np.asarray(mag, dtype=np.float64)
    if mag.ndim != 2:
        raise ValueError(f"magnitude plane must be 2D, got shape {mag.shape}")
    if np.any(mag < 0):
        raise ValueError("magnitude plane must be nonnegative")
    k = gaussian_kernel_1d(sigma, kernel_size)
    out = np.empty(mag.shape)
    for src, dest in ((mag.T, out.T), (out, out)):
        _smooth_rows(src, k, dest)
    return np.maximum(out, 0.0, out=out)


def azimuthal_profile(spectrum: ComplexImage) -> RadialProfile:
    """Mean of |S|^2 per annulus of rounded Euclidean radius from DC.

    Ring-mean normalization, so a flat (white) spectrum yields a flat profile.
    """
    h, w = spectrum.shape
    radius = np.rint(np.hypot(freq_grid(h)[:, None], freq_grid(w)[None, :])).astype(np.int64)
    power = np.abs(spectrum.values) ** 2
    counts = np.bincount(radius.ravel())
    sums = np.bincount(radius.ravel(), weights=power.ravel())
    values = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    centers = np.arange(counts.size, dtype=np.float64)
    return RadialProfile(centers, values, counts)


def profile_to_csv(profile: RadialProfile) -> str:
    """Render a profile as ``radius,mean_sq_magnitude,count`` CSV text."""
    rows = [
        {"radius": int(r), "mean_sq_magnitude": v, "count": int(c)}
        for r, v, c in zip(profile.bin_centers, profile.values, profile.counts)
    ]
    return csv_text(("radius", "mean_sq_magnitude", "count"), rows)
