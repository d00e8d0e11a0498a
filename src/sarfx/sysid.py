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

import math
from dataclasses import InitVar, dataclass

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
    ``values`` is copied; with ``copy=False`` a plane just computed is held as it is.
    """

    values: np.ndarray
    strategy: str = STRATEGY_KNOWN
    smoothing: tuple[int, float] | None = None
    fit_params: tuple = ()
    copy: InitVar[bool] = True

    def __post_init__(self, copy):
        values = _locked(self.values, np.float64, copy)
        _check_plane(values, "transfer function")
        if np.any(values < 0):
            raise RasterError("transfer function must be nonnegative everywhere")
        peak = values.max()
        if abs(peak - 1.0) > _MAX_GAIN_TOL:
            raise RasterError(f"transfer function max gain must be 1, got {peak!r}")
        flipped = central_flip(values)
        flipped -= values  # |a - b| == |b - a|, and one plane fewer
        asym = np.abs(flipped, out=flipped).max()
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
    if not np.isfinite(data).all():
        raise ValueError("fit input must be finite; it holds NaN or Inf values")
    if np.any(data < 0):
        raise ValueError("fit input must be nonnegative")
    energy = float(np.einsum("ij,ij->", data, data))
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


_DET_MIN = 1e-12  # a candidate whose 2x2 Gram determinant is at most this is skipped
_SCREEN_CHUNK = 1 << 13  # candidate-by-bin entries the screen holds at once
_EPS = np.finfo(np.float64).eps


def _gamma(n: int) -> float:
    """Higham's γ_n = nu/(1 - nu): relative rounding bound of an n-term sum or product."""
    return n * _EPS / (1.0 - n * _EPS)


def _cutoff_candidate(marginal: np.ndarray, fa: np.ndarray, fc: float):
    """Least-squares fit of ``alpha - beta*cos(pi(|f|-fc)/fc)`` on ``|f| <= fc``
    to a 1D marginal: ``(cost, fc, alpha, beta)``, or None when the 2x2 system
    is singular. The model is linear in (alpha, beta) for a fixed cutoff."""
    inside = (fa <= fc).astype(np.float64)
    b1 = -np.cos(np.pi * (fa - fc) / fc) * inside
    g00 = inside @ inside
    g01 = inside @ b1
    g11 = b1 @ b1
    r0 = inside @ marginal
    r1 = b1 @ marginal
    det = g00 * g11 - g01 * g01
    if det <= _DET_MIN:
        return None
    alpha = (g11 * r0 - g01 * r1) / det
    beta = (g00 * r1 - g01 * r0) / det
    model = alpha * inside + beta * b1
    return float(np.sum((model - marginal) ** 2)), float(fc), float(alpha), float(beta)


def _screen_cutoffs(marginal: np.ndarray, fa: np.ndarray, candidates: np.ndarray):
    """Every candidate's least-squares cost ‖m‖² − αr₀ − βr₁ at once, from the
    marginal folded onto k = |f|, with an absolute bound on its distance from
    what ``_cutoff_candidate`` computes; and each Gram determinant with its bound.

    On the half-axis the basis vector is ``-cos(pi(k-fc)/fc) = cos(pi k/fc)``,
    evaluated as the loop does, so the screen and the loop sum the same terms
    and differ only in summation order and in the 2x2 solve. The screen drops
    the basis's sign, which flips β, r₁ and g01 and leaves the cost alone.
    """
    k_of = fa.astype(np.intp)
    k = np.arange(k_of.max() + 1, dtype=np.float64)
    counts = np.bincount(k_of).astype(np.float64)
    folded = np.bincount(k_of, weights=marginal)
    mm = float(np.einsum("i,i->", marginal, marginal))
    last = np.floor(candidates).astype(np.intp)  # the largest k inside each candidate
    g00 = np.cumsum(counts)[last]
    r0 = np.cumsum(folded)[last]
    g01, g11, r1 = (np.empty_like(candidates) for _ in range(3))
    rows = max(1, _SCREEN_CHUNK // k.size)
    for start in range(0, candidates.size, rows):
        fc = candidates[start : start + rows, None]
        basis = np.cos(np.pi * (k - fc) / fc)  # the loop's basis with the sign flipped
        basis[k > fc] = 0.0
        chunk = slice(start, start + rows)
        g01[chunk] = basis @ counts
        r1[chunk] = basis @ folded
        basis *= basis
        g11[chunk] = basis @ counts
    det = g00 * g11 - g01 * g01
    gram = g00 * g11 + g01 * g01
    gamma = _gamma(fa.size + 8)
    det_bound = 8.0 * gamma * gram
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = (g11 * r0 - g01 * r1) / det
        beta = (g00 * r1 - g01 * r0) / det
        cost = mm - alpha * r0 - beta * r1
        # first order in every rounded sum, each within γ of a sum of |terms|
        # that Cauchy-Schwarz bounds by (‖m‖ + |α|√g00 + |β|√g11)², and in the
        # 2x2 solve, whose error the Gram matrix's condition gram/det scales;
        # 8x covers the loop's own rounding of its cost as well
        size = (math.sqrt(mm) + np.abs(alpha) * np.sqrt(g00) + np.abs(beta) * np.sqrt(g11)) ** 2
        cost_bound = 8.0 * gamma * (gram / det) * size
    return cost, cost_bound, det, det_bound


def _prescan_cutoff(marginal: np.ndarray, f: np.ndarray, nyq: float):
    """Best candidate cutoff for a 1D marginal profile: ``(fc, alpha, beta)``.

    Candidate cutoffs run from 1.5 bins to Nyquist in quarter bins; for each
    the axis model ``alpha - beta*cos(pi(|f|-fc)/fc)`` is fitted by linear least
    squares, and the first candidate of least cost wins. The scan sidesteps the
    spurious local minima that the moving support boundary creates for
    derivative-based steps.

    A vectorised screen bounds every candidate's cost. ``_cutoff_candidate``
    then runs on the screen's best candidate, whose cost C bounds the winner's
    from above, and on every candidate the screen cannot rule out: a lower
    bound at most C, or a determinant within its bound of the threshold. The
    result is the one a loop of ``_cutoff_candidate`` over all candidates gives.
    """
    fa = np.abs(f)
    candidates = np.arange(1.5, nyq + 0.25, 0.25)
    results = []
    if candidates.size:
        cost, cost_bound, det, det_bound = _screen_cutoffs(marginal, fa, candidates)
        valid = det > _DET_MIN + det_bound
        recheck = ~valid & (det > _DET_MIN - det_bound)
        if valid.any():
            first = int(np.argmin(np.where(valid, cost, np.inf)))
            results.append(_cutoff_candidate(marginal, fa, candidates[first]))
            ceiling = results[0][0] if results[0] else np.inf
            recheck |= valid & (cost - cost_bound <= ceiling)
            recheck[first] = False
        results += [_cutoff_candidate(marginal, fa, fc) for fc in candidates[recheck]]
    results = [r for r in results if r is not None]
    if not results:
        return 0.9 * nyq, 1.0, 1.0
    return min(results)[1:]  # least cost, then the first candidate


def _run_fit(data: np.ndarray, x0, columns):
    """LM fit of a rank-one model g·p_y⊗p_x to the plane D, in projection space.

    The gain g is ``p[0]``, and ``columns(p)`` gives the Jacobian columns as
    outer products uᵢ⊗vᵢ, as (u, v) pairs, the first being ∂/∂g = p_y⊗p_x. Then

        cost     = ‖D‖² − 2g·p_yᵀDp_x + g²‖p_y‖²‖p_x‖²
        JᵀJ[i,j] = (uᵢ·uⱼ)(vᵢ·vⱼ)
        Jᵀr[i]   = g(uᵢ·p_y)(vᵢ·p_x) − uᵢᵀDvᵢ

    so an evaluation costs a few matrix-vector products and no plane. The
    closed-form cost cancels to the small residual, so it carries a rounding
    bound against the plane cost Σ(g·p_y⊗p_x − D)², which the solver evaluates
    where the bound leaves a decision open and once at the solution. Every sum
    is an unthreaded ``einsum``, so the fit does not depend on the BLAS thread
    count.
    """
    h, w = data.shape
    dd = math.fsum(np.einsum("ij,ij->i", data, data))
    gamma_closed, gamma_plane = _gamma(h + w + 8), _gamma(h * w + 2)

    def rank_one(p):
        return (p[0], *columns(p)[0])

    def cost(p):
        g, py, px = rank_one(p)
        ab = np.einsum("i,i->", py, py) * np.einsum("i,i->", px, px)
        quad = g * g * ab
        value = dd - 2.0 * g * np.einsum("i,i->", py, np.einsum("ij,j->i", data, px)) + quad
        # closed form: each sum within γ of Σ|terms| ≤ (‖D‖ + |g|‖p_y‖‖p_x‖)²
        # (Cauchy-Schwarz, D ≥ 0); plane: its sum of squares, and the rounding
        # of each residual relative to the model
        closed = gamma_closed * (math.sqrt(dd) + abs(g) * math.sqrt(ab)) ** 2
        plane = max(value, 0.0) + closed
        return value, 2.0 * (closed + gamma_plane * plane + 5.0 * _EPS * math.sqrt(plane * quad))

    def exact_cost(p):
        g, py, px = rank_one(p)
        r = np.outer(py, px)
        r *= g
        r -= data
        r = r.ravel()
        # an unthreaded einsum: BLAS ddot (r @ r) rounds by its thread count
        return float(np.einsum("i,i->", r, r))

    def normal_equations(p):
        us, vs = zip(*columns(p))
        g, py, px = p[0], us[0], vs[0]
        dv = {id(vi): vi for vi in vs}  # D·vᵢ once per factor: both models reuse p_x
        dv = {key: np.einsum("ij,j->i", data, vi) for key, vi in dv.items()}
        udv = np.array([np.einsum("i,i->", ui, dv[id(vi)]) for ui, vi in zip(us, vs)])
        u, v = np.array(us), np.array(vs)
        jtr = g * np.einsum("ki,i->k", u, py) * np.einsum("ki,i->k", v, px) - udv
        return (u @ u.T) * (v @ v.T), jtr

    try:
        return least_squares(cost, x0, normal_equations, exact_cost)
    except FitDivergenceError as exc:
        raise FitNonConvergenceError(f"iterative least-squares fit did not converge: {exc}") from exc


def _axis_cutoffs(data: np.ndarray, strategy: str):
    """The prescan's ``(fc, alpha, beta)`` for the x and the y marginal.

    A white spectrum has no low-pass to fit: its best cutoff lies at Nyquist
    with a flat lobe, and the LM would wander to its iteration cap. That is
    rejected here, before any fit, on either axis.
    """
    h, w = data.shape
    fits = []
    for marginal, n in ((data.sum(axis=0), w), (data.sum(axis=1), h)):
        fc, alpha, beta = _prescan_cutoff(marginal, freq_grid(n), nyquist_bins(n))
        if fc >= nyquist_bins(n) - 1.0 and abs(beta) <= 0.05 * alpha:
            raise DegenerateSpectrumError(
                f"{strategy} fit: the spectrum is flat up to Nyquist (white), so it has no "
                f"low-pass response to fit; use the direct strategy"
            )
        fits.append((fc, alpha, beta))
    return fits


def fit_gaussian(f_kn: np.ndarray) -> GaussianFitParams:
    """Fit a separable 2D Gaussian bell to an energy-normalized magnitude plane.

    The per-axis gains are degenerate up to a shared factor, so the product
    gain is fitted as a single parameter and split evenly across axes.
    """
    data = _check_fit_input(f_kn)
    _axis_cutoffs(data, STRATEGY_GAUSSIAN)  # rejects a white spectrum
    h, w = data.shape
    fx, fy = freq_grid(w), freq_grid(h)
    mu_x0, sd_x0 = _marginal_moments(data.sum(axis=0), fx)
    mu_y0, sd_y0 = _marginal_moments(data.sum(axis=1), fy)
    g0 = max(float(data.max()), 1e-12)

    def bells(p):
        g, mx, sx, my, sy = p
        return np.exp(-((fx - mx) ** 2) / (2.0 * sx**2)), np.exp(-((fy - my) ** 2) / (2.0 * sy**2))

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

    result = _run_fit(data, [g0, mu_x0, sd_x0, mu_y0, sd_y0], columns)
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
    (fc_x0, alpha_x, beta_x), (fc_y0, alpha_y, beta_y) = _axis_cutoffs(data, STRATEGY_RAISED_COSINE)
    a_x0 = float(np.clip(beta_x / alpha_x, 0.05, 3.0)) if alpha_x > 0 else 1.0
    a_y0 = float(np.clip(beta_y / alpha_y, 0.05, 3.0)) if alpha_y > 0 else 1.0
    g0 = peak / ((1.0 + a_x0) * (1.0 + a_y0))

    def columns(p):
        # Support membership is held fixed within an iteration; the moving
        # |f| <= fc boundary makes finite differences unusable near integer
        # cutoffs.
        g, ax, fcx, ay, fcy = p
        px, dpx_da, dpx_dfc = _rc_shape(fx, ax, fcx)
        py, dpy_da, dpy_dfc = _rc_shape(fy, ay, fcy)
        return [(py, px), (g * py, dpx_da), (g * py, dpx_dfc), (g * dpy_da, px), (g * dpy_dfc, px)]

    result = _run_fit(data, [g0, a_x0, fc_x0, a_y0, fc_y0], columns)
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
    np.maximum(plane, 0.0, out=plane)
    peak = plane.max()
    if peak <= 0:
        raise DegenerateSpectrumError("estimated response is identically zero")
    plane /= peak
    return TransferFunction(plane, strategy, copy=False)


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
