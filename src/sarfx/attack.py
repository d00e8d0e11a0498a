"""Counter-forensic re-acquisition pipeline.

The attack chain: complex speckle injection -> filtering through the system
frequency response -> amplitude extraction -> exact histogram matching
against the input.
"""

from __future__ import annotations

import numpy as np

from .raster import AmplitudeImage, ComplexImage, RasterError
from .speckle import MODE_PHASE_ONLY, generate_speckle, inject_speckle
from .sysid import TransferFunction


def _bare_plane(plane, dtype, what: str) -> np.ndarray:
    """``plane``, handed over to be written in place: a writable C-contiguous 2D plane of ``dtype``."""
    if not (isinstance(plane, np.ndarray) and plane.ndim == 2 and plane.dtype == dtype
            and plane.flags.c_contiguous and plane.flags.writeable):
        raise RasterError(f"{what} or a writable C-contiguous 2D {np.dtype(dtype).name} plane")
    return plane


def apply_system(signal, h) -> ComplexImage:
    """Filter a complex signal through the response H (circular convolution).

    A ComplexImage ``signal`` is copied; a complex plane, as :func:`inject_speckle`
    returns it, is handed over: filtered in place and held without a copy.
    ``h`` is normally a validated TransferFunction; a bare DC-centered plane
    is also accepted so unnormalized responses can be applied directly.
    """
    values = h.values if isinstance(h, TransferFunction) else np.asarray(h, dtype=np.float64)
    buf = signal.values.copy() if isinstance(signal, ComplexImage) else _bare_plane(
        signal, np.complex128, "signal must be a ComplexImage")
    if buf.shape != values.shape:
        raise RasterError(f"dimension mismatch: signal {buf.shape} vs H {values.shape}")
    # one work plane, transformed in place; ifftshift(fftshift(F) * H) == F * ifftshift(H)
    np.fft.fft2(buf, out=buf)
    buf *= np.fft.ifftshift(values)
    if not np.all(np.isfinite(buf)):
        raise RasterError("spectrum contains NaN or Inf values")
    # the inverse one axis at a time, as ifft2 runs it: on numpy 2.4 ifft2(buf, out=buf)
    # returns a correct new array and leaves wrong values in buf
    np.fft.ifft(buf, axis=1, out=buf)
    np.fft.ifft(buf, axis=0, out=buf)
    return ComplexImage(buf, copy=False)


def histogram_match(source, reference: AmplitudeImage) -> AmplitudeImage:
    """Exact rank mapping: pixel of rank k in source gets reference's rank-k value.

    Ties break by row-major index order; the output's sorted values equal the
    reference's sorted values exactly. A bare ``source``, as :func:`run_attack`
    takes |z|, is handed over: a writable C-contiguous 2D float64 plane of finite
    nonnegative values that the match is scattered into.
    """
    values = source.values if isinstance(source, AmplitudeImage) else _bare_plane(
        source, np.float64, "source must be an AmplitudeImage")
    if values.size != reference.values.size:
        raise RasterError(f"pixel count mismatch: {values.size} vs {reference.values.size}")
    flat = values.ravel()
    # the stable order from one sort of uint64 keys: a nonnegative double's bits order
    # as its value (+ 0.0 makes -0.0 +0.0), and the index replaces its low bits
    index_bits = (1 << (flat.size - 1).bit_length()) - 1
    keys = np.add(flat, 0.0).view(np.uint64)
    keys &= ~np.uint64(index_bits)
    keys |= np.arange(flat.size, dtype=np.uint64)
    keys.sort()
    if keys[-1] >= 0x7FF0000000000000:  # +inf's bits; NaN and a sign bit sort above them
        raise RasterError("source values must be finite and nonnegative")
    _order_shared_high_bits(keys, flat, index_bits)
    keys &= index_bits
    ordered = np.sort(reference.values, axis=None)
    matched = flat if values is source else np.empty_like(flat)  # a handed-over source is spent
    matched[keys.view(np.int64)] = ordered
    return AmplitudeImage(matched.reshape(values.shape), reference.dynamic_range_bits, copy=False)


def _order_shared_high_bits(keys, flat, index_bits) -> None:
    """Put in (value, index) order the sorted keys of distinct values that differ only
    in the index bits: runs of neighbours whose high bits are equal."""
    shared = (keys[1:] ^ keys[:-1]) <= index_bits
    i = np.flatnonzero(shared)
    if np.any(flat[keys[i] & index_bits] != flat[keys[i + 1] & index_bits]):  # not only exact ties
        at = np.flatnonzero(np.r_[shared, False] | np.r_[False, shared])  # bits order the runs by value
        keys[at] = keys[at][np.argsort(flat[keys[at] & index_bits], kind="stable")]


def run_attack(image: AmplitudeImage, h: TransferFunction, seed: int, speckle_mode: str = MODE_PHASE_ONLY,
               match_histogram: bool = True) -> AmplitudeImage:
    """The attacked image: the full pipeline run on an amplitude image through the
    system response ``h``, known or estimated beforehand with
    :func:`sarfx.sysid.estimate_transfer_function`; deterministic under the seed."""
    if h.shape != image.shape:
        raise RasterError(f"transfer function {h.shape} does not match image {image.shape}")
    # one complex plane is drawn, speckled and filtered in place, and goes once |z|
    # is taken: a bare plane the histogram match scatters into
    amplitude = np.abs(apply_system(inject_speckle(
        image, generate_speckle(*image.shape, speckle_mode, seed=seed)), h).values)
    return (histogram_match(amplitude, image) if match_histogram
            else AmplitudeImage(amplitude, image.dynamic_range_bits, copy=False))
