"""Complex speckle field generation and multiplicative injection.

Fields follow the fully-developed model: amplitude Rayleigh(sigma_s), phase
uniform on [0, 2pi), pixels mutually independent; every acquisition in the
package draws unit-energy speckle, sigma_s = DEFAULT_SIGMA_S. The phase-only
variant pins every amplitude to 1 and is the pipeline default. A Philox
counter-based stream keyed by the seed makes (dims, mode, sigma_s, seed)
reproduce a field bit-for-bit and keeps block-parallel generation possible.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .raster import AmplitudeImage, RasterError

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


def generate_speckle(
    height: int,
    width: int,
    mode: str = MODE_PHASE_ONLY,
    sigma_s: float = DEFAULT_SIGMA_S,
    seed: int = 0,
) -> np.ndarray:
    """Draw a speckle field into a new complex128 plane that the caller owns;
    deterministic given the seed.

    Draw order is fixed (phases first, then amplitudes) so the stream layout
    is part of the contract.
    """
    if mode not in SPECKLE_MODES:
        raise ValueError(f"unknown speckle mode {mode!r}")
    if mode == MODE_FULL and not 0 < sigma_s <= sys.float_info.max:
        raise ValueError(f"sigma_s must be positive and finite in full mode, got {sigma_s}")
    gen = rng(seed)
    phase = gen.uniform(0.0, 2.0 * np.pi, size=(height, width))
    field = np.empty(phase.shape, np.complex128)
    np.cos(phase, out=field.real)  # straight into each part: no temporary plane
    np.sin(phase, out=field.imag)
    del phase  # gone before the amplitudes are drawn
    if mode == MODE_FULL:
        # Rayleigh via inverse CDF of the uniform draw, sigma_s * sqrt(-2 log(1 - u)),
        # each step in place on the draw; u < 1 keeps the log finite.
        amp = gen.random(size=(height, width))
        np.negative(amp, out=amp)
        np.log1p(amp, out=amp)
        amp *= -2.0
        np.sqrt(amp, out=amp)
        amp *= sigma_s
        field.real *= amp
        field.imag *= amp
    return field


def inject_speckle(amplitude: AmplitudeImage, field: np.ndarray) -> np.ndarray:
    """Product of a real amplitude and a complex speckle field. The field, as
    :func:`generate_speckle` returns it, is handed over: the amplitude is
    multiplied into it in place and it is returned (``apply_system`` filters it
    in place in turn)."""
    if amplitude.shape != field.shape:
        raise RasterError(
            f"dimension mismatch: amplitude {amplitude.shape} vs field {field.shape}"
        )
    field.real *= amplitude.values
    field.imag *= amplitude.values
    return field
