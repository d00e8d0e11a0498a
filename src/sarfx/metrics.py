"""Quality and detection metrics: SSIM, MS-SSIM, ENL, |Delta-ENL|, ROC-AUC,
and a stand-in localization detector.

SSIM follows the windowed formulation (11x11 Gaussian window, sigma 1.5,
K1 = 0.01, K2 = 0.03) averaged over valid windows; MS-SSIM uses the standard
five-scale weighting with dyadic 2x downsampling. ENL is mean^2/variance of
amplitude pixels over a caller-chosen region; the same convention is applied
to both sides of |Delta-ENL|. AUC uses the Mann-Whitney rank statistic with
ties counting one half. The detector, ``residual_variance``, scores texture
that departs from its neighbourhood, which a splice leaves and the attack hides.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .raster import (
    AmplitudeImage,
    ComplexImage,
    RasterError,
    TamperMask,
    read_raster,
)
from .spectral import _BLOCK_ROWS, valid_convolver

SSIM_WINDOW_SIZE = 11
SSIM_WINDOW_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03

# Canonical five-scale weights, renormalized to sum exactly to 1.
_RAW_MSSSIM_WEIGHTS = np.array([0.0448, 0.2856, 0.3001, 0.2363, 0.1333])
MSSSIM_WEIGHTS = _RAW_MSSSIM_WEIGHTS / _RAW_MSSSIM_WEIGHTS.sum()

# Column names of a scored pair in every table (experiment report, batch CSV).
METRIC_COLUMNS = ("ssim", "msssim", "enl_a", "enl_b", "delta_enl_pct", "auc")


class DegenerateRegionError(ValueError):
    """Region has too few pixels or zero variance for the requested statistic."""


@dataclass(frozen=True)
class MetricReport:
    """One evaluation row; AUC is present only when a fingerprint was scored."""

    ssim: float
    msssim: float
    enl_source: float
    enl_reference: float
    delta_enl_pct: float
    auc: float | None = None
    auc_polarity: str = "max"

    def __post_init__(self):
        if not -1.0 <= self.ssim <= 1.0 + 1e-12:
            raise ValueError(f"ssim out of range: {self.ssim}")
        if not -1.0 <= self.msssim <= 1.0 + 1e-12:
            raise ValueError(f"msssim out of range: {self.msssim}")
        if self.enl_source <= 0 or self.enl_reference <= 0:
            raise ValueError("ENL values must be positive")
        if self.delta_enl_pct < 0:
            raise ValueError("|Delta-ENL| must be nonnegative")
        if self.auc is not None and not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc out of range: {self.auc}")

    def to_dict(self) -> dict:
        return asdict(self)

    def columns(self) -> dict:
        """The report's values keyed by ``METRIC_COLUMNS``, its first six fields."""
        return dict(zip(METRIC_COLUMNS, astuple(self)[: len(METRIC_COLUMNS)]))


def _as_plane(image, what: str) -> np.ndarray:
    if isinstance(image, AmplitudeImage):
        return image.values
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{what} must be a 2D plane")
    return arr


def _resolve_range(a, b, dynamic_range) -> float:
    if dynamic_range is not None:
        if not dynamic_range > 0:
            raise ValueError("dynamic_range must be positive")
        return float(dynamic_range)
    if isinstance(a, AmplitudeImage):
        return a.dynamic_range
    if isinstance(b, AmplitudeImage):
        return b.dynamic_range
    raise ValueError("dynamic_range is required for bare arrays")


def gaussian_window() -> np.ndarray:
    """The unit-sum 2D Gaussian SSIM weighting window."""
    x = np.arange(SSIM_WINDOW_SIZE, dtype=np.float64) - (SSIM_WINDOW_SIZE - 1) / 2.0
    g = np.exp(-0.5 * (x / SSIM_WINDOW_SIGMA) ** 2)
    k = np.outer(g, g)
    return k / k.sum()


@functools.lru_cache(maxsize=16)
def _window_convolver(shape):
    # the window is symmetric, so convolution equals correlation
    return valid_convolver(shape, gaussian_window(), (0, 1))


def _ssim_components(a: np.ndarray, b: np.ndarray, dynamic_range: float, luminance: bool):
    """``(mean(lum*cs), mean(cs))``, the first None unless ``luminance``. ``a`` and ``b``
    are windowed as they are; each product moment is formed and consumed a row block
    at a time into one ``den`` plane (var_a, then var_a + var_b + c2, then cs), and
    lum*cs overwrites mu_a by row block, so three compact moment planes exist. Every
    operation keeps its operands and order; both means run over whole contiguous
    planes."""
    if a.shape[0] < SSIM_WINDOW_SIZE or a.shape[1] < SSIM_WINDOW_SIZE:
        raise ValueError(
            f"images of shape {a.shape} are smaller than the {SSIM_WINDOW_SIZE}x"
            f"{SSIM_WINDOW_SIZE} SSIM window"
        )
    windowed = _window_convolver(a.shape)
    c1 = (SSIM_K1 * dynamic_range) ** 2
    c2 = (SSIM_K2 * dynamic_range) ** 2
    mu_a, mu_b = windowed(a), windowed(b)
    den = np.empty_like(mu_a)  # var_a, then var_a + var_b + c2, then cs
    windowed(a, a, lambda rows, e_aa: np.subtract(e_aa, mu_a[rows] * mu_a[rows], out=den[rows]))
    windowed(b, b, lambda rows, e_bb: np.add(e_bb - mu_b[rows] * mu_b[rows] + den[rows], c2,
                                             out=den[rows]))
    windowed(a, b, lambda rows, e_ab: np.divide(2 * (e_ab - mu_a[rows] * mu_b[rows]) + c2, den[rows],
                                                out=den[rows]))
    if not luminance:
        return None, float(np.mean(den))
    for r in range(0, len(mu_a), _BLOCK_ROWS):
        ma, mb = mu_a[r:r + _BLOCK_ROWS], mu_b[r:r + _BLOCK_ROWS]
        ma[:] = (2 * ma * mb + c1) / (np.square(ma) + np.square(mb) + c1) * den[r:r + _BLOCK_ROWS]
    return float(np.mean(mu_a)), float(np.mean(den))


def _ssim_terms(pa: np.ndarray, pb: np.ndarray, dynamic_range: float, n_scales: int):
    """``(mean(lum*cs), mean(cs))`` at each of the first ``n_scales`` dyadic scales,
    ``mean(lum*cs)`` None except at the first scale (SSIM) and the last (MS-SSIM).

    The full-resolution scale is always computed, so a plane smaller than the
    window raises the window error whatever ``n_scales`` is.
    """
    terms = []
    while True:
        terms.append(_ssim_components(pa, pb, dynamic_range, len(terms) in (0, n_scales - 1)))
        if len(terms) >= n_scales:
            return terms
        pa, pb = _downsample2(pa), _downsample2(pb)


def _planes(a, b, dynamic_range):
    pa = _as_plane(a, "a")
    pb = _as_plane(b, "b")
    if pa.shape != pb.shape:
        raise ValueError(f"shape mismatch: {pa.shape} vs {pb.shape}")
    return pa, pb, _resolve_range(a, b, dynamic_range)


def ssim(a, b, dynamic_range=None) -> float:
    """Mean SSIM over valid 11x11 Gaussian windows."""
    return _ssim_terms(*_planes(a, b, dynamic_range), 1)[0][0]


def ms_ssim_scale_count(shape: tuple[int, int]) -> int:
    """Number of dyadic scales, at most five, that keep both dimensions >= the SSIM window."""
    scales = 0
    h, w = shape
    while scales < MSSSIM_WEIGHTS.size and min(h, w) >= SSIM_WINDOW_SIZE:
        scales += 1
        h, w = h // 2, w // 2
    return scales


def _downsample2(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    trimmed = plane[: 2 * (h // 2), : 2 * (w // 2)]
    return 0.25 * (
        trimmed[0::2, 0::2] + trimmed[1::2, 0::2] + trimmed[0::2, 1::2] + trimmed[1::2, 1::2]
    )


def _combine_scales(terms, shape) -> float:
    # stacklevel 3 points the warning at the caller of ms_ssim / evaluate_pair
    n_scales = len(terms)
    if n_scales < MSSSIM_WEIGHTS.size:
        warnings.warn(f"MS-SSIM reduced to {n_scales} scales for shape {shape}", stacklevel=3)
    weights = MSSSIM_WEIGHTS[:n_scales] / MSSSIM_WEIGHTS[:n_scales].sum()
    score = 1.0
    for level, (full, cs) in enumerate(terms):
        term = full if level == n_scales - 1 else cs
        score *= max(term, 0.0) ** weights[level]
    return float(score)


def ms_ssim(a, b, dynamic_range=None) -> float:
    """Multi-scale SSIM with the standard five-scale weighting.

    Contrast-structure terms are accumulated at the coarser scales and the
    full SSIM enters at the last scale; inputs too small for five scales use
    as many scales as fit (weights renormalized) and emit a warning.
    """
    pa, pb, drange = _planes(a, b, dynamic_range)
    n_scales = ms_ssim_scale_count(pa.shape)
    if n_scales == 0:
        raise ValueError(f"images of shape {pa.shape} support no MS-SSIM scale")
    return _combine_scales(_ssim_terms(pa, pb, drange, n_scales), pa.shape)


def enl(image, region=None) -> float:
    """Equivalent number of looks: mean^2 / variance of amplitude pixels."""
    plane = _as_plane(image, "image")
    if region is not None:
        sel = region.values if isinstance(region, TamperMask) else np.asarray(region)
        if sel.shape != plane.shape:
            raise ValueError(f"region shape {sel.shape} does not match image {plane.shape}")
        pixels = plane[sel.astype(bool)]
    else:
        pixels = plane.ravel()
    if pixels.size < 2:
        raise DegenerateRegionError("ENL needs at least 2 pixels")
    variance = float(pixels.var())
    if variance == 0.0:
        raise DegenerateRegionError("ENL is undefined on a zero-variance region")
    mean = float(pixels.mean())
    return mean * mean / variance


def _delta_enl_pct(enl_attacked: float, enl_pristine: float) -> float:
    return abs(enl_attacked - enl_pristine) / enl_pristine * 100.0


def delta_enl(attacked, pristine, region=None) -> float:
    """Absolute relative ENL difference, in percent of the pristine ENL."""
    return _delta_enl_pct(enl(attacked, region), enl(pristine, region))


def auc_roc(fingerprint, mask: TamperMask, polarity: str = "max") -> float:
    """Mann-Whitney AUC of fingerprint scores against the tampering mask.

    polarity "max" picks the score orientation that maximizes the AUC
    (detector fingerprints have arbitrary sign); "positive" keeps the raw
    orientation.
    """
    if polarity not in ("max", "positive"):
        raise ValueError(f"unknown polarity {polarity!r}")
    scores = np.asarray(fingerprint)
    if scores.shape != mask.shape:
        raise ValueError(f"fingerprint shape {scores.shape} does not match mask {mask.shape}")
    scores = scores.ravel()
    if not np.all(np.isfinite(scores)):
        raise ValueError("fingerprint scores must be finite")
    labels = mask.values.ravel().astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("mask must contain both classes")
    # 1-based ranks of the positives, tied scores sharing their group's mean rank
    ordered = np.sort(scores)
    positives = scores[labels]
    ranks = 0.5 * (np.searchsorted(ordered, positives, "left")
                   + np.searchsorted(ordered, positives, "right") + 1)
    auc = (float(ranks.sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    if polarity == "max":
        return float(max(auc, 1.0 - auc))
    return float(auc)


def _box_mean(plane: np.ndarray, size: int) -> np.ndarray:
    """``ndimage.uniform_filter(plane, size, mode="reflect")`` bit for bit, for odd
    ``size``: axis 0 then axis 1 over symmetric padding, each output a running sum
    (the first window summed in order, then a cumsum of the entering minus the
    leaving sample) divided by ``size``."""
    out = plane
    r = size // 2
    for _ in range(2):
        padded = np.pad(out.T, ((0, 0), (r, r)), "symmetric")
        first = padded[:, 0].copy()
        for j in range(1, size):
            first += padded[:, j]
        steps = padded[:, size:] - padded[:, :-size]
        out = np.cumsum(np.concatenate([first[:, None], steps], axis=1), axis=1) / size
    return out


def residual_variance(image) -> np.ndarray:
    """Stand-in localization detector: the 9×9 local variance of the 3×3
    high-pass residual, over the squared 9×9 local mean."""
    v = _as_plane(image, "image")
    resid = v - _box_mean(v, 3)
    var = _box_mean(resid * resid, 9)
    mean = np.maximum(_box_mean(v, 9), 1e-9)
    return var / (mean * mean)


def read_fingerprint(path) -> np.ndarray:
    """Detector scores from a raster file: the values of an amplitude raster,
    or the real plane of a complex one (fingerprints may carry negative
    scores). A mask raster is rejected rather than scored."""
    image = read_raster(path)
    if isinstance(image, ComplexImage):
        return image.re
    if isinstance(image, AmplitudeImage):
        return image.values
    raise RasterError(f"{path}: masks cannot serve as fingerprints")


def evaluate_pair(
    source,
    reference,
    fingerprint=None,
    mask: TamperMask | None = None,
    dynamic_range=None,
) -> MetricReport:
    """Bundle the full metric set for one (source, reference) image pair.

    One SSIM pass serves both SSIM (its first scale) and MS-SSIM, and
    |Delta-ENL| reuses the two ENLs; every value equals what the standalone
    function returns.
    """
    auc = None
    if fingerprint is not None:
        if mask is None:
            raise ValueError("AUC needs both a fingerprint and a mask")
        auc = auc_roc(fingerprint, mask, polarity="max")
    pa, pb, drange = _planes(source, reference, dynamic_range)
    terms = _ssim_terms(pa, pb, drange, ms_ssim_scale_count(pa.shape))
    msssim = _combine_scales(terms, pa.shape)
    enl_source = enl(source)
    enl_reference = enl(reference)
    return MetricReport(
        ssim=terms[0][0],
        msssim=msssim,
        enl_source=enl_source,
        enl_reference=enl_reference,
        delta_enl_pct=_delta_enl_pct(enl_source, enl_reference),
        auc=auc,
    )
