"""Estimation of the end-to-end SAR system frequency response.

Three estimation strategies operate on the smoothed magnitude spectrum of the
available imagery: a separable 2D Gaussian fit, a separable 2D raised-cosine
fit, and a direct estimate that is the central symmetrization of the smoothed
spectrum. Every returned response is nonnegative, central-symmetric, and
normalized to unit maximum gain.

Axis convention: ``x`` is the width/range axis (columns), ``y`` the
height/azimuth axis (rows). Frequencies are measured in DC-centered bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .leastsq import FitDivergenceError, least_squares
from .raster import AmplitudeImage, ComplexImage, PlaneShape, RasterError, _check_plane, _locked
from .spectral import central_flip, forward_dft, smooth_spectrum

STRATEGY_GAUSSIAN = "gaussian"
STRATEGY_RAISED_COSINE = "raised_cosine"
STRATEGY_DIRECT = "direct"
STRATEGY_KNOWN = "known"
ESTIMATORS = (STRATEGY_GAUSSIAN, STRATEGY_RAISED_COSINE, STRATEGY_DIRECT)
STRATEGIES = ESTIMATORS + (STRATEGY_KNOWN,)

_SYMMETRY_TOL = 1e-9
_MAX_GAIN_TOL = 1e-12


class FitNonConvergenceError(RuntimeError):
    """The iterative least-squares fit did not converge."""


class DegenerateSpectrumError(ValueError):
    """Input spectrum carries no usable energy."""


@dataclass(frozen=True)
class TransferFunction(PlaneShape):
    """Nonnegative, central-symmetric, max-gain-1 frequency response (DC-centered).

    An estimate records how it was made: the ``(kernel_size, sigma)`` smoothing
    used, and one fit-parameter record per source (``None`` for the direct
    strategy). A known H has neither: ``smoothing`` is None, ``fit_params`` empty.
    """

    values: np.ndarray
    strategy: str = STRATEGY_KNOWN
    smoothing: tuple[int, float] | None = None
    fit_params: tuple = ()

    def __post_init__(self):
        values = _locked(self.values, np.float64)
        _check_plane(values, "transfer function")
        if np.any(values < 0):
            raise RasterError("transfer function must be nonnegative everywhere")
        peak = values.max()
        if abs(peak - 1.0) > _MAX_GAIN_TOL:
            raise RasterError(f"transfer function max gain must be 1, got {peak!r}")
        asym = np.abs(values - central_flip(values)).max()
        if asym > _SYMMETRY_TOL:
            raise RasterError(f"transfer function breaks central symmetry by {asym:.3e}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class GaussianFitParams:
    """Separable Gaussian bell parameters per axis, the fit residual norm, solver diagnostics."""

    gain_x: float
    mean_x: float
    std_x: float
    gain_y: float
    mean_y: float
    std_y: float
    residual: float
    iterations: int | None = None
    stop: str | None = None

    def __post_init__(self):
        if not (self.gain_x > 0 and self.gain_y > 0):
            raise ValueError("gains must be positive")
        if not (self.std_x > 0 and self.std_y > 0):
            raise ValueError("standard deviations must be positive")


@dataclass(frozen=True)
class RaisedCosineFitParams:
    """Separable raised-cosine parameters per axis, the fit residual norm, solver diagnostics."""

    a_x: float
    b_x: float
    cutoff_x: float
    a_y: float
    b_y: float
    cutoff_y: float
    residual: float
    iterations: int | None = None
    stop: str | None = None

    def __post_init__(self):
        if not (self.a_x > 0 and self.a_y > 0 and self.b_x > 0 and self.b_y > 0):
            raise ValueError("A and B must be positive")
        if not (self.cutoff_x > 0 and self.cutoff_y > 0):
            raise ValueError("cutoff frequencies must be positive")


def freq_grid(n: int) -> np.ndarray:
    """DC-centered frequency bins for an n-sample axis."""
    return np.arange(n, dtype=np.float64) - n // 2


def nyquist_bins(n: int) -> float:
    return float(n // 2)


def magnitude_spectrum(image) -> np.ndarray:
    """|F(image)| as a DC-centered plane; amplitude images are taken as real input,
    so |F(f)| = |F(-f)|: ``rfft2`` gives columns 0..w//2 and the rest mirror them."""
    if not isinstance(image, AmplitudeImage):
        return np.abs(forward_dft(image).values)
    half = np.abs(np.fft.rfft2(image.values))
    mirrored = np.roll(half[::-1], 1, axis=0)[:, (image.width - 1) // 2 : 0 : -1]  # |F(-f)|
    return np.fft.fftshift(np.concatenate([half, mirrored], axis=1))


def normalize_energy(mag: np.ndarray) -> np.ndarray:
    """Scale a magnitude plane so its squared values sum to 1."""
    mag = np.asarray(mag, dtype=np.float64)
    energy = float(np.sum(mag * mag))
    if energy <= 0:
        raise DegenerateSpectrumError("cannot energy-normalize an all-zero plane")
    return mag / np.sqrt(energy)


def _check_fit_input(data: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("fit input must be a 2D plane")
    if np.any(data < 0):
        raise ValueError("fit input must be nonnegative")
    energy = float(np.sum(data * data))
    if abs(energy - 1.0) > 1e-8:
        raise ValueError(f"fit input must have unit energy, got sum of squares {energy!r}")
    return data


def gaussian_axis(f, gain: float, mean: float, std: float) -> np.ndarray:
    """1D Gaussian bell; at f = mean the value equals the axis gain."""
    f = np.asarray(f, dtype=np.float64)
    return gain * np.exp(-((f - mean) ** 2) / (2.0 * std**2))


def raised_cosine_axis(f, a: float, b: float, cutoff: float) -> np.ndarray:
    """1D raised cosine, evaluated symmetrically in |f|; zero beyond the cutoff."""
    f = np.abs(np.asarray(f, dtype=np.float64))
    fc = max(float(cutoff), 1e-9)
    lobe = a - b * np.cos(np.pi * (f - fc) / fc)
    return np.where(f <= fc, lobe, 0.0)


def _marginal_moments(marginal: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    total = marginal.sum()
    if total <= 0:
        raise DegenerateSpectrumError("empty marginal profile")
    mean = float((f * marginal).sum() / total)
    var = float((((f - mean) ** 2) * marginal).sum() / total)
    return mean, max(np.sqrt(var), 0.5)


def _prescan_cutoff(marginal: np.ndarray, f: np.ndarray, nyq: float):
    """Scan candidate cutoffs against a 1D marginal profile.

    For a fixed cutoff the axis model ``alpha - beta*cos(pi(|f|-fc)/fc)`` is
    linear in (alpha, beta), so each candidate costs one 2x2 solve. The scan
    sidesteps the spurious local minima that the moving support boundary
    creates for derivative-based steps.
    """
    fa = np.abs(f)
    best = None
    for fc in np.arange(1.5, nyq + 0.25, 0.25):
        inside = (fa <= fc).astype(np.float64)
        b1 = -np.cos(np.pi * (fa - fc) / fc) * inside
        g00 = inside @ inside
        g01 = inside @ b1
        g11 = b1 @ b1
        r0 = inside @ marginal
        r1 = b1 @ marginal
        det = g00 * g11 - g01 * g01
        if det <= 1e-12:
            continue
        alpha = (g11 * r0 - g01 * r1) / det
        beta = (g00 * r1 - g01 * r0) / det
        model = alpha * inside + beta * b1
        cost = float(np.sum((model - marginal) ** 2))
        if best is None or cost < best[0]:
            best = (cost, float(fc), float(alpha), float(beta))
    if best is None:
        return 0.9 * nyq, 1.0, 1.0
    return best[1], best[2], best[3]


def _run_fit(data: np.ndarray, model_fn, x0, columns):
    """LM fit of a separable model whose Jacobian columns are outer products u ⊗ v,
    given as (u, v) pairs by ``columns(p)``: JᵀJ[i, j] = (uᵢ·uⱼ)(vᵢ·vⱼ) and
    Jᵀr[i] = uᵢᵀ R vᵢ for the residual plane R, without the dense Jacobian."""
    residual = lambda p: (model_fn(p) - data).ravel()

    def normal_equations(p, r):
        u, v = (np.array(factors) for factors in zip(*columns(p)))
        return (u @ u.T) * (v @ v.T), ((u @ r.reshape(data.shape)) * v).sum(axis=1)
    try:
        return least_squares(residual, x0, normal_equations=normal_equations)
    except FitDivergenceError as exc:
        raise FitNonConvergenceError(f"iterative least-squares fit did not converge: {exc}") from exc


def fit_gaussian(f_kn: np.ndarray) -> GaussianFitParams:
    """Fit a separable 2D Gaussian bell to an energy-normalized magnitude plane.

    The per-axis gains are degenerate up to a shared factor, so the product
    gain is fitted as a single parameter and split evenly across axes.
    """
    data = _check_fit_input(f_kn)
    h, w = data.shape
    fx, fy = freq_grid(w), freq_grid(h)
    mu_x0, sd_x0 = _marginal_moments(data.sum(axis=0), fx)
    mu_y0, sd_y0 = _marginal_moments(data.sum(axis=1), fy)
    g0 = max(float(data.max()), 1e-12)

    def bells(p):
        g, mx, sx, my, sy = p
        return np.exp(-((fx - mx) ** 2) / (2.0 * sx**2)), np.exp(-((fy - my) ** 2) / (2.0 * sy**2))

    def model(p):
        gx, gy = bells(p)
        return p[0] * np.outer(gy, gx)

    def columns(p):
        g, mx, sx, my, sy = p
        gx, gy = bells(p)
        return [
            (gy, gx),
            (g * gy, gx * (fx - mx) / sx**2),
            (g * gy, gx * (fx - mx) ** 2 / sx**3),
            (g * gy * (fy - my) / sy**2, gx),
            (g * gy * (fy - my) ** 2 / sy**3, gx),
        ]

    result = _run_fit(data, model, [g0, mu_x0, sd_x0, mu_y0, sd_y0], columns)
    g, mx, sx, my, sy = result.params
    if g <= 0:
        raise FitNonConvergenceError(f"fit converged to nonpositive gain {g!r}")
    axis_gain = float(np.sqrt(g))
    return GaussianFitParams(
        gain_x=axis_gain,
        mean_x=float(mx),
        std_x=float(abs(sx)),
        gain_y=axis_gain,
        mean_y=float(my),
        std_y=float(abs(sy)),
        residual=result.residual_norm,
        iterations=result.iterations,
        stop=result.stop,
    )


def fit_raised_cosine(f_kn: np.ndarray) -> RaisedCosineFitParams:
    """Fit a separable 2D raised cosine to an energy-normalized magnitude plane.

    Same gain-splitting convention as the Gaussian fit; fitted cutoffs are
    clamped into (0, Nyquist].
    """
    data = _check_fit_input(f_kn)
    h, w = data.shape
    fx, fy = freq_grid(w), freq_grid(h)
    peak = max(float(data.max()), 1e-12)
    fc_x0, alpha_x, beta_x = _prescan_cutoff(data.sum(axis=0), fx, nyquist_bins(w))
    fc_y0, alpha_y, beta_y = _prescan_cutoff(data.sum(axis=1), fy, nyquist_bins(h))
    a_x0 = float(np.clip(beta_x / alpha_x, 0.05, 3.0)) if alpha_x > 0 else 1.0
    a_y0 = float(np.clip(beta_y / alpha_y, 0.05, 3.0)) if alpha_y > 0 else 1.0
    g0 = peak / ((1.0 + a_x0) * (1.0 + a_y0))

    def model(p):
        g, ax, fcx, ay, fcy = p
        return g * np.outer(_rc_shape(fy, ay, fcy)[0], _rc_shape(fx, ax, fcx)[0])

    def columns(p):
        # Support membership is held fixed within an iteration; the moving
        # |f| <= fc boundary makes finite differences unusable near integer
        # cutoffs.
        g, ax, fcx, ay, fcy = p
        px, dpx_da, dpx_dfc = _rc_shape(fx, ax, fcx)
        py, dpy_da, dpy_dfc = _rc_shape(fy, ay, fcy)
        return [(py, px), (g * py, dpx_da), (g * py, dpx_dfc), (g * dpy_da, px), (g * dpy_dfc, px)]

    result = _run_fit(data, model, [g0, a_x0, fc_x0, a_y0, fc_y0], columns)
    g, ax, fcx, ay, fcy = result.params
    if g <= 0 or ax <= 0 or ay <= 0:
        raise FitNonConvergenceError("fit converged to nonpositive gain parameters")
    scale = float(np.sqrt(g))
    return RaisedCosineFitParams(
        a_x=scale,
        b_x=scale * float(ax),
        cutoff_x=float(min(abs(fcx), nyquist_bins(w))),
        a_y=scale,
        b_y=scale * float(ay),
        cutoff_y=float(min(abs(fcy), nyquist_bins(h))),
        residual=result.residual_norm,
        iterations=result.iterations,
        stop=result.stop,
    )


def _rc_shape(f, a, fc):
    """Unit-A raised-cosine lobe of the fit parametrization, and its partials
    w.r.t. a and fc (inside the support)."""
    f = np.abs(f)
    fc = max(abs(fc), 1e-6)
    inside = f <= fc
    theta = np.pi * (f - fc) / fc
    value = np.where(inside, 1.0 - a * np.cos(theta), 0.0)
    d_a = np.where(inside, -np.cos(theta), 0.0)
    d_fc = np.where(inside, -a * np.sin(theta) * np.pi * f / fc**2, 0.0)
    return value, d_a, d_fc


def _normalized_response(plane: np.ndarray, strategy: str) -> TransferFunction:
    plane = np.maximum(plane, 0.0)
    peak = plane.max()
    if peak <= 0:
        raise DegenerateSpectrumError("estimated response is identically zero")
    return TransferFunction(plane / peak, strategy)


def gaussian_response(params: GaussianFitParams, shape: tuple[int, int]) -> TransferFunction:
    """Evaluate a fitted Gaussian on the DC-centered grid, symmetrized per axis."""
    def symmetric(f, gain, mean, std):
        # averaged over f and -f, so nonzero fitted means cannot break the
        # central symmetry required of a transfer function
        return 0.5 * (gaussian_axis(f, gain, mean, std) + gaussian_axis(-f, gain, mean, std))

    gx = symmetric(freq_grid(shape[1]), params.gain_x, params.mean_x, params.std_x)
    gy = symmetric(freq_grid(shape[0]), params.gain_y, params.mean_y, params.std_y)
    return _normalized_response(np.outer(gy, gx), STRATEGY_GAUSSIAN)


def raised_cosine_response(params: RaisedCosineFitParams, shape: tuple[int, int]) -> TransferFunction:
    """Evaluate a fitted raised cosine on the DC-centered grid."""
    h, w = shape
    rx = raised_cosine_axis(freq_grid(w), params.a_x, params.b_x, params.cutoff_x)
    ry = raised_cosine_axis(freq_grid(h), params.a_y, params.b_y, params.cutoff_y)
    return _normalized_response(np.outer(ry, rx), STRATEGY_RAISED_COSINE)


def estimate_direct(f_k: np.ndarray) -> TransferFunction:
    """Direct response estimate: |F(Re(IF(F_K)))|, max-normalized.

    For a real, nonnegative F_K that magnitude is the central symmetrization
    ½(F_K(f) + F_K(-f)), so it is computed in closed form, without a transform.
    """
    f_k = np.asarray(f_k, dtype=np.float64)
    if np.any(f_k < 0):
        raise ValueError("smoothed magnitude input must be nonnegative")
    if f_k.max() <= 0:
        raise DegenerateSpectrumError("all-zero spectrum has no direct estimate")
    return _normalized_response(0.5 * (f_k + central_flip(f_k)), STRATEGY_DIRECT)


def default_smoothing(min_dim: int) -> tuple[int, float]:
    """(kernel_size, sigma) for spectrum smoothing: 601/100 at the 1024 tile size,
    scaled proportionally below it."""
    if min_dim >= 1024:
        return 601, 100.0
    k = max(int(np.ceil(0.587 * min_dim)) | 1, 3)  # rounded up to odd
    return k, k / 6.01


def estimate_transfer_function(
    sources,
    strategy: str = STRATEGY_DIRECT,
    *,
    sigma: float | None = None,
    kernel_size: int | None = None,
) -> TransferFunction:
    """Estimate the system response from one or more images.

    Per source: magnitude spectrum -> Gaussian smoothing -> strategy-specific
    estimate; multiple sources are averaged after per-source max
    normalization, then renormalized. Amplitude-only input is accepted only
    with the direct strategy (the curve fits do not converge on amplitude
    spectra) and only as a single source. The returned H records the
    smoothing used and the per-source fit parameters.
    """
    if strategy not in ESTIMATORS:
        raise ValueError(f"unknown estimation strategy {strategy!r}; accepted: {list(ESTIMATORS)}")

    if isinstance(sources, (ComplexImage, AmplitudeImage)):
        sources = [sources]
    sources = list(sources)
    if not sources:
        raise ValueError("at least one source image is required")
    shape = sources[0].shape
    if any(src.shape != shape for src in sources):
        raise RasterError("all source images must share dimensions")

    amplitude_only = [isinstance(src, AmplitudeImage) for src in sources]
    if any(amplitude_only):
        if strategy != STRATEGY_DIRECT:
            raise ValueError(
                "amplitude-only sources are permitted only with the direct strategy: "
                "curve fits do not converge on amplitude spectra"
            )
        if len(sources) != 1 or not all(amplitude_only):
            raise ValueError("amplitude-only estimation takes exactly one amplitude image")

    if kernel_size is None or sigma is None:
        default_k, default_s = default_smoothing(min(shape))
        kernel_size = default_k if kernel_size is None else kernel_size
        sigma = default_s if sigma is None else sigma

    responses = []
    fit_params = []
    for src in sources:
        f_k = smooth_spectrum(magnitude_spectrum(src), sigma, kernel_size)
        if strategy == STRATEGY_DIRECT:
            params, tf = None, estimate_direct(f_k)
        elif strategy == STRATEGY_GAUSSIAN:
            params = fit_gaussian(normalize_energy(f_k))
            tf = gaussian_response(params, shape)
        else:
            params = fit_raised_cosine(normalize_energy(f_k))
            tf = raised_cosine_response(params, shape)
        fit_params.append(params)
        responses.append(tf)

    if len(responses) == 1:
        # already max-normalized: its peak is exactly 1.0, so renormalizing is a no-op
        h = responses[0]
    else:
        # Per-pixel sort before summation makes the mean exactly
        # permutation-invariant and bit-reproducible.
        stack = np.sort(np.stack([tf.values for tf in responses]), axis=0)
        h = _normalized_response(stack.sum(axis=0) / len(responses), strategy)
    # recorded on the H just built, so H is validated once
    object.__setattr__(h, "smoothing", (kernel_size, sigma))
    object.__setattr__(h, "fit_params", tuple(fit_params))
    return h


def normalized_cross_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Zero-lag normalized cross-correlation (cosine similarity) of two planes."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = np.sqrt((a @ a) * (b @ b))
    if denom == 0:
        raise ValueError("cannot correlate all-zero planes")
    return float((a @ b) / denom)
