"""Discrete Fourier transform contract, spectrum smoothing, and radial profiling.

Convention, fixed once for the whole package so golden values are portable:
no scaling on the forward transform, 1/(N*M) on the inverse, and spectra are
stored DC-centered (bin ``(H//2, W//2)`` is DC).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .raster import AmplitudeImage, ComplexImage, PlaneShape, RasterError, _check_plane, _locked
from .tables import csv_text


@dataclass(frozen=True)
class Spectrum(PlaneShape):
    """DC-centered complex spectrum with the dimensions of its source image."""

    values: np.ndarray

    def __post_init__(self):
        values = _locked(self.values, np.complex128)
        _check_plane(values, "spectrum")
        object.__setattr__(self, "values", values)

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)


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


def forward_dft(image) -> Spectrum:
    """Unnormalized forward 2D DFT of an image, returned DC-centered."""
    if isinstance(image, (ComplexImage, AmplitudeImage)):
        image = image.to_complex() if isinstance(image, ComplexImage) else image.values
    return Spectrum(np.fft.fftshift(np.fft.fft2(np.asarray(image, np.complex128))))


def inverse_dft(spectrum: Spectrum) -> ComplexImage:
    """Inverse 2D DFT with 1/(N*M) scaling; exact inverse of :func:`forward_dft`."""
    return ComplexImage.from_complex(np.fft.ifft2(np.fft.ifftshift(spectrum.values)), copy=False)


def central_flip(values: np.ndarray) -> np.ndarray:
    """Map a DC-centered plane through f -> -f (index negation modulo size)."""
    a = np.fft.ifftshift(np.asarray(values))
    flipped = np.roll(a[::-1, ::-1], (1, 1), axis=(0, 1))
    return np.fft.fftshift(flipped)


def check_gaussian_kernel(sigma, size) -> None:
    """Reject a ``size`` that is not a positive odd integer and a ``sigma`` that
    is not a positive number; an argument given as None is not checked."""
    if size is not None and (isinstance(size, bool) or not isinstance(size, numbers.Integral)
                             or size < 1 or size % 2 != 1):
        raise ValueError(f"kernel size must be a positive odd integer, got {size!r}")
    if sigma is not None and (isinstance(sigma, bool) or not isinstance(sigma, numbers.Real)
                              or not sigma > 0):
        raise ValueError(f"sigma must be a positive number, got {sigma!r}")


def gaussian_kernel_1d(sigma: float, size: int) -> np.ndarray:
    """Unit-sum sampled Gaussian of odd length ``size``."""
    check_gaussian_kernel(sigma, size)
    x = np.arange(size, dtype=np.float64) - size // 2
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def valid_convolver(shape, kernel: np.ndarray, axes):
    """``plane -> scipy.signal.fftconvolve(plane, kernel, "valid", axes=axes)`` for real
    planes of ``shape``, bit-identical to it (same FFT sizes, product order and
    crop), with the kernel transformed once and the product taken in place. Its
    ``padded`` is the shape the FFTs zero-pad ``shape`` to: a plane of ``shape``
    already zero-padded to it gives the same output, and is not copied."""
    padded = [sp_fft.next_fast_len(n + k - 1, True) if a in axes else n
              for a, (n, k) in enumerate(zip(shape, kernel.shape))]
    fshape = [padded[a] for a in axes]
    kernel_spectrum = sp_fft.rfftn(kernel, fshape, axes=axes)
    crop = tuple(slice(k - 1, n) for n, k in zip(shape, kernel.shape))

    def convolve(plane):
        spectrum = sp_fft.rfftn(plane, fshape, axes=axes)
        spectrum *= kernel_spectrum
        return sp_fft.irfftn(spectrum, fshape, axes=axes, overwrite_x=True)[crop]

    convolve.padded = tuple(padded)
    return convolve


def smooth_spectrum(mag: np.ndarray, sigma: float, kernel_size: int) -> np.ndarray:
    """Convolve a magnitude plane with a unit-sum Gaussian, reflective padding.

    Same-size output; the separable kernel keeps values nonnegative and, on
    interior-supported inputs, preserves total mass. Symmetric padding, one
    axis at a time, equals ndimage's ``reflect``; the convolution runs by FFT.
    """
    mag = np.asarray(mag, dtype=np.float64)
    if mag.ndim != 2:
        raise ValueError(f"magnitude plane must be 2D, got shape {mag.shape}")
    if np.any(mag < 0):
        raise ValueError("magnitude plane must be nonnegative")
    k = gaussian_kernel_1d(sigma, kernel_size)
    r = kernel_size // 2
    for axis in (0, 1):
        mag = np.pad(mag, [(r, r) if a == axis else (0, 0) for a in (0, 1)], "symmetric")
        mag = valid_convolver(mag.shape, np.expand_dims(k, 1 - axis), (axis,))(mag)
    return np.maximum(mag, 0.0)


def azimuthal_profile(spectrum: Spectrum) -> RadialProfile:
    """Mean of |S|^2 per annulus of rounded Euclidean radius from DC.

    Ring-mean normalization, so a flat (white) spectrum yields a flat profile.
    """
    h, w = spectrum.shape
    cy, cx = h // 2, w // 2
    ry = np.arange(h, dtype=np.float64)[:, None] - cy
    rx = np.arange(w, dtype=np.float64)[None, :] - cx
    radius = np.rint(np.hypot(ry, rx)).astype(np.int64)
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
