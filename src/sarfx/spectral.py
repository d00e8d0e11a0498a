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


def _next_fast_len(n: int) -> int:
    """The least 5-smooth integer >= ``n`` >= 1, as ``scipy.fft.next_fast_len(n, real=True)``.
    Every 5-smooth number below 2**64 divides 30**64, and no other number does."""
    n = int(n)  # a numpy integer cannot take 30**64 % n
    while 30**64 % n:
        n += 1
    return n


_BLOCK_ROWS = 64  # rows per block of the convolutions; rows transform alone, so any count is exact


def _convolve_rows(src, kernel_spectrum, n, out, pad=0):
    """Each row of ``src``, padded symmetrically by ``pad`` at both ends, convolved by
    length-``n`` FFTs with the kernel whose ``rfft`` is ``kernel_spectrum``; its valid
    part is scaled into the same row of ``out``, maybe a transposed view. Rows run
    ``_BLOCK_ROWS`` at a time, so no padded or spectrum plane exists."""
    scale = np.float64(1 / np.longdouble(n))  # as in valid_convolver
    start = src.shape[1] + 2 * pad - out.shape[1]  # the kernel's length less one
    for r in range(0, len(src), _BLOCK_ROWS):
        block = np.pad(src[r:r + _BLOCK_ROWS], ((0, 0), (pad, pad)), "symmetric")
        rows = np.fft.irfft(np.fft.rfft(block, n, axis=1) * kernel_spectrum, n, axis=1, norm="forward")
        np.multiply(rows[:, start:start + out.shape[1]], scale, out=out[r:r + _BLOCK_ROWS])


def valid_convolver(shape, kernel: np.ndarray):
    """``plane -> irfftn(rfftn(plane, s) * rfftn(kernel, s), s)[crop]`` for real planes
    of ``shape``, bit-identical to it, with the kernel transformed once. ``s`` is the
    circular size ``_next_fast_len(shape[a])``, not ``fftconvolve``'s linear one: an
    output ``j >= k - 1`` reads inputs ``j - k + 1`` to ``j`` only, so ``crop``, the
    valid part, never wraps and equals ``fftconvolve(plane, kernel, "valid")`` to
    roundoff. ``convolve(plane, other)`` convolves ``form(plane, other, out=block)``,
    by default their product, formed a block of rows at a time just before ``rfft``
    writes their spectrum rows, so no formed plane exists. Only the plane's rows are
    transformed, axis 0 runs in place on one spectrum buffer, and the kept rows are
    inverted block by block into one compact C-contiguous result, or passed, with
    ``consume``, as ``consume(rows, block)`` instead. The buffers are allocated per
    call, so threads can share one convolver."""
    sizes = [_next_fast_len(m) for m in shape]
    kernel_spectrum = np.fft.rfftn(kernel, sizes, axes=(0, 1))
    n = sizes[1]
    # pocketfft's own T(1/ldbl(N)), applied after the unscaled inverse as it does
    scale = np.float64(1 / np.longdouble(np.prod(sizes)))
    crop = tuple(slice(k - 1, m) for m, k in zip(shape, kernel.shape))

    def convolve(plane, other=None, consume=None, form=np.multiply):
        spectrum = np.empty(kernel_spectrum.shape, np.complex128)
        block = None if other is None else np.empty((_BLOCK_ROWS, shape[1]))
        for r in range(0, shape[0], _BLOCK_ROWS):
            rows = plane[r:r + _BLOCK_ROWS]
            if other is not None:
                rows = form(rows, other[r:r + _BLOCK_ROWS], out=block[: len(rows)])
            np.fft.rfft(rows, n, axis=1, out=spectrum[r:r + len(rows)])
        spectrum[shape[0]:] = 0
        del block, rows  # the formed rows are spent once transformed
        np.fft.fft(spectrum, axis=0, out=spectrum)
        spectrum *= kernel_spectrum
        np.fft.ifft(spectrum, axis=0, norm="forward", out=spectrum)
        kept = spectrum[crop[0]]
        out = None if consume else np.empty((len(kept), shape[1] - kernel.shape[1] + 1))
        for r in range(0, len(kept), _BLOCK_ROWS):
            rows = np.fft.irfft(kept[r:r + _BLOCK_ROWS], n, axis=1, norm="forward")[:, crop[1]]
            block = slice(r, r + len(rows))
            if consume:
                consume(block, np.multiply(rows, scale, out=rows))
            else:
                np.multiply(rows, scale, out=out[block])
        return out

    return convolve


def smooth_spectrum(mag: np.ndarray, sigma: float, kernel_size: int) -> np.ndarray:
    """Convolve a magnitude plane with a unit-sum Gaussian, reflective padding.

    Same-size output; the separable kernel keeps values nonnegative and, on
    interior-supported inputs, preserves total mass. Symmetric padding, one
    axis at a time, equals ndimage's ``reflect``; the convolution runs by FFT.
    Axis 0, then axis 1, runs ``_BLOCK_ROWS`` rows at a time: each block is padded,
    transformed, multiplied by the kernel spectrum, inverted and scaled into one
    output plane. The first pass takes the input's columns as rows and writes its
    blocks transposed; the second runs over that plane in place. Row transforms
    are bit for bit the strided column ones, and faster.
    """
    mag = np.asarray(mag, dtype=np.float64)
    if mag.ndim != 2:
        raise ValueError(f"magnitude plane must be 2D, got shape {mag.shape}")
    if np.any(mag < 0):
        raise ValueError("magnitude plane must be nonnegative")
    k = gaussian_kernel_1d(sigma, kernel_size)
    r = kernel_size // 2
    out = np.empty(mag.shape)
    for src, dest in ((mag.T, out.T), (out, out)):
        n = _next_fast_len(src.shape[1] + 2 * r + kernel_size - 1)
        _convolve_rows(src, np.fft.rfft(k, n), n, dest, pad=r)
    return np.maximum(out, 0.0, out=out)


def azimuthal_profile(spectrum: ComplexImage) -> RadialProfile:
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
