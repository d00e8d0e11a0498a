"""Counter-forensic re-acquisition pipeline.

The attack chain: complex speckle injection -> filtering through the system
frequency response -> amplitude extraction -> exact histogram matching
against the input.
"""

from __future__ import annotations

import numpy as np

from .raster import AmplitudeImage, ComplexImage, RasterError
from .speckle import DEFAULT_SIGMA_S, MODE_PHASE_ONLY, generate_speckle, inject_speckle
from .sysid import TransferFunction


def apply_system(signal, h) -> ComplexImage:
    """Filter a complex signal through the response H (circular convolution).

    A ComplexImage ``signal`` is copied; a complex plane, as :func:`inject_speckle`
    returns it, is handed over: filtered in place and held without a copy.
    ``h`` is normally a validated TransferFunction; a bare DC-centered plane
    is also accepted so unnormalized responses can be applied directly.
    """
    values = h.values if isinstance(h, TransferFunction) else np.asarray(h, dtype=np.float64)
    buf = signal.values.copy() if isinstance(signal, ComplexImage) else signal
    if not (isinstance(buf, np.ndarray) and buf.ndim == 2 and buf.dtype == np.complex128
            and buf.flags.c_contiguous and buf.flags.writeable):
        raise RasterError("signal must be a ComplexImage or a writable C-contiguous 2D complex128 plane")
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
    reference's sorted values exactly. A float64 plane ``source``, as
    :func:`run_attack` takes |z|, is handed over: the match is scattered into it.
    """
    values = source.values if isinstance(source, AmplitudeImage) else source
    if values.size != reference.values.size:
        raise RasterError(f"pixel count mismatch: {values.size} vs {reference.values.size}")
    flat = values.ravel()
    order = np.argsort(flat)  # unstable; the stable order sorts by (value, index)
    ordered = np.sort(flat)
    tied = ordered[1:] == ordered[:-1]
    if tied.any():  # re-sort the indices inside each run of equal values
        order = np.sort(np.cumsum(np.r_[False, ~tied]) * flat.size + order) % flat.size
    ordered[:] = reference.values.ravel()  # the sorted buffer now takes the reference's values
    ordered.sort()
    matched = flat if values is source else np.empty_like(flat)  # a handed-over source is spent
    matched[order] = ordered
    return AmplitudeImage(matched.reshape(values.shape), reference.dynamic_range_bits, copy=False)


def run_attack(image: AmplitudeImage, h: TransferFunction, seed: int, speckle_mode: str = MODE_PHASE_ONLY,
               sigma_s: float = DEFAULT_SIGMA_S, match_histogram: bool = True) -> AmplitudeImage:
    """The attacked image: the full pipeline run on an amplitude image through the
    system response ``h``, known or estimated beforehand with
    :func:`sarfx.sysid.estimate_transfer_function`; deterministic under the seed."""
    if h.shape != image.shape:
        raise RasterError(f"transfer function {h.shape} does not match image {image.shape}")
    # one complex plane is drawn, speckled and filtered in place, and goes once |z|
    # is taken: a bare plane the histogram match scatters into
    filtered = apply_system(inject_speckle(
        image, generate_speckle(*image.shape, speckle_mode, sigma_s, seed)), h).values
    amplitude = np.hypot(filtered.real, filtered.imag)
    del filtered
    return (histogram_match(amplitude, image) if match_histogram
            else AmplitudeImage(amplitude, image.dynamic_range_bits, copy=False))
