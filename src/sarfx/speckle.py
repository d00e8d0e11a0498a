"""Complex speckle field generation and multiplicative injection.

Fields follow the fully-developed model: amplitude Rayleigh(sigma_s), phase
uniform on [0, 2pi), pixels mutually independent. The phase-only variant
pins every amplitude to 1 and is the pipeline default. Randomness comes from
a Philox counter-based stream keyed by the seed, so identical
(dims, mode, sigma_s, seed) always reproduce the same field bit-for-bit and
block-parallel generation stays possible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass

import numpy as np

from .raster import AmplitudeImage, PlaneShape, RasterError, _locked

MODE_FULL = "full"
MODE_PHASE_ONLY = "phase_only"
SPECKLE_MODES = (MODE_FULL, MODE_PHASE_ONLY)

# E[S^2] = 2 sigma^2 = 1: injection preserves expected energy.
DEFAULT_SIGMA_S = 1.0 / math.sqrt(2.0)


def rng(seed: int) -> np.random.Generator:
    """The package's seeded generator: a Philox stream keyed by a 64-bit seed.

    Every seeded draw (speckle, edit parameters, splice placements, global-edit
    noise) goes through here, so seeds are range-checked in one place.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class SpeckleField(PlaneShape):
    """Complex speckle realization; re/im are float64 planes."""

    _plane = "re"

    re: np.ndarray
    im: np.ndarray
    mode: str
    sigma_s: float | None = None
    copy: InitVar[bool] = True

    def __post_init__(self, copy):
        re, im = _locked(self.re, np.float64, copy), _locked(self.im, np.float64, copy)
        if re.shape != im.shape or re.ndim != 2:
            raise RasterError("speckle planes must be congruent 2D arrays")
        if self.mode not in SPECKLE_MODES:
            raise ValueError(f"unknown speckle mode {self.mode!r}")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.re, self.im)


def generate_speckle(
    height: int,
    width: int,
    mode: str = MODE_PHASE_ONLY,
    sigma_s: float = DEFAULT_SIGMA_S,
    seed: int = 0,
) -> SpeckleField:
    """Draw a speckle field; deterministic given the seed.

    Draw order is fixed (phases first, then amplitudes) so the stream layout
    is part of the contract.
    """
    if mode not in SPECKLE_MODES:
        raise ValueError(f"unknown speckle mode {mode!r}")
    if mode == MODE_FULL and not 0 < sigma_s <= sys.float_info.max:
        raise ValueError(f"sigma_s must be positive and finite in full mode, got {sigma_s}")
    gen = rng(seed)
    phase = gen.uniform(0.0, 2.0 * np.pi, size=(height, width))
    if mode == MODE_PHASE_ONLY:
        return SpeckleField(np.cos(phase), np.sin(phase), mode, copy=False)
    # Rayleigh via inverse CDF of the uniform draw; u < 1 keeps the log finite.
    u = gen.random(size=(height, width))
    amp = sigma_s * np.sqrt(-2.0 * np.log1p(-u))
    return SpeckleField(amp * np.cos(phase), amp * np.sin(phase), mode, float(sigma_s), copy=False)


def inject_speckle(amplitude: AmplitudeImage, field: SpeckleField) -> np.ndarray:
    """Product of a real amplitude and a complex speckle field, filled into a new
    writable complex128 plane that the caller owns (``apply_system`` filters it in place)."""
    if amplitude.shape != field.shape:
        raise RasterError(
            f"dimension mismatch: amplitude {amplitude.shape} vs field {field.shape}"
        )
    z = np.empty(amplitude.shape, np.complex128)
    np.multiply(amplitude.values, field.re, out=z.real)
    np.multiply(amplitude.values, field.im, out=z.imag)
    return z
