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

from dataclasses import asdict, dataclass

import numpy as np

from .raster import AmplitudeImage, TamperMask, check_kind, read_raster
from .spectral import gaussian_kernel_1d

SSIM_WINDOW_SIZE = 11
SSIM_WINDOW_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03

# Canonical five-scale weights, renormalized to sum exactly to 1.
_RAW_MSSSIM_WEIGHTS = np.array([0.0448, 0.2856, 0.3001, 0.2363, 0.1333])
MSSSIM_WEIGHTS = _RAW_MSSSIM_WEIGHTS / _RAW_MSSSIM_WEIGHTS.sum()

# Each table column of a scored pair (experiment report, batch CSV): its MetricReport field.
_COLUMN_FIELDS = {"ssim": "ssim", "msssim": "msssim", "enl_a": "enl_source", "enl_b": "enl_reference",
                  "delta_enl_pct": "delta_enl_pct", "auc": "auc"}
METRIC_COLUMNS = tuple(_COLUMN_FIELDS)


class DegenerateRegionError(ValueError):
    """Region has too few pixels or zero variance for the requested statistic."""


@dataclass(frozen=True)
class MetricReport:
    """The whole record of one scored pair; AUC is present only when a fingerprint was scored."""

    ssim: float
    msssim: float
    enl_source: float
    enl_reference: float
    delta_enl_pct: float
    msssim_scales: int
    auc: float | None = None

    def __post_init__(self):
        if not -1.0 <= self.ssim <= 1.0 + 1e-12:
            raise ValueError(f"ssim out of range: {self.ssim}")
        if not -1.0 <= self.msssim <= 1.0 + 1e-12:
            raise ValueError(f"msssim out of range: {self.msssim}")
        if self.msssim_scales not in range(1, MSSSIM_WEIGHTS.size + 1):
            raise ValueError(f"msssim_scales out of range: {self.msssim_scales}")
        if self.enl_source <= 0 or self.enl_reference <= 0:
            raise ValueError("ENL values must be positive")
        if self.delta_enl_pct < 0:
            raise ValueError("|Delta-ENL| must be nonnegative")
        if self.auc is not None and not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc out of range: {self.auc}")

    def to_dict(self) -> dict:
        return asdict(self)

    def columns(self) -> dict:
        """The report's table values keyed by ``METRIC_COLUMNS``."""
        return {column: getattr(self, name) for column, name in _COLUMN_FIELDS.items()}


def _as_plane(image, what: str) -> np.ndarray:
    if isinstance(image, AmplitudeImage):
        return image.values
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{what} must be a 2D plane")
    return arr


def gaussian_window() -> np.ndarray:
    """The unit-sum 2D Gaussian SSIM weighting window."""
    x = np.arange(SSIM_WINDOW_SIZE, dtype=np.float64) - (SSIM_WINDOW_SIZE - 1) / 2.0
    g = np.exp(-0.5 * (x / SSIM_WINDOW_SIGMA) ** 2)
    k = np.outer(g, g)
    return k / k.sum()


# Output rows and columns per banded product: a 32x42 tile's product stays below
# OpenBLAS's threading size, so it runs on one BLAS thread whatever the thread count.
_TILE = 32


def _column_tiles(a, width, step):
    """The 2D ``a``'s columns as ``width``-wide tiles ``step`` apart, one ``(count, rows,
    width)`` view, and, where those miss columns, the tile that ends at the last column."""
    count = (a.shape[1] - width) // step + 1
    tiles = [np.lib.stride_tricks.as_strided(a, (count, len(a), width), (step * a.strides[1], *a.strides))]
    if (count - 1) * step + width < a.shape[1]:
        tiles.append(a[:, -width:])
    return tiles


def _moment_blocks(a, b):
    """Yield ``(rows, (mu_a, mu_b, W(a*a + b*b), W(a*b)))`` per block of ``_TILE`` output
    rows, ``W`` being ``fftconvolve(plane, gaussian_window(), "valid")`` to roundoff as two
    passes of the normalised 1D taps. Each pass is a banded matrix product over a stack of
    column tiles, all views: the band, rows of shifted taps, times the block's input rows
    along axis 0, then the overlapping column tiles of that result times the band's
    transpose along axis 1. A last short tile is recomputed whole over the one before it.
    The products are formed a block of input rows at a time. The moments, one stacked view,
    live in buffers that the next block overwrites, allocated per call so threads share none."""
    taps = gaussian_kernel_1d(SSIM_WINDOW_SIGMA, SSIM_WINDOW_SIZE)
    reach, tile = SSIM_WINDOW_SIZE - 1, _TILE
    band = np.zeros((tile, tile + reach))
    for i in range(tile):
        band[i, i:i + SSIM_WINDOW_SIZE] = taps
    kept_rows, kept_cols = a.shape[0] - reach, a.shape[1] - reach
    t0, t1 = min(tile, a.shape[1]), min(tile, kept_cols)
    # in C order, BLAS sums each output's taps in order, so no tile size changes a bit
    band_t = band[:t1, :t1 + reach].T.copy()
    formed = np.empty((2, tile + reach, a.shape[1]))
    mid = np.empty((tile, a.shape[1]))
    out = np.empty((4, tile, kept_cols))
    mid_in, mid_out = _column_tiles(mid, t0, t0), _column_tiles(mid, t1 + reach, t1)
    passes = [(list(zip(_column_tiles(src, t0, t0), mid_in)),
               list(zip(mid_out, _column_tiles(dest, t1, t1)))) for src, dest in zip((a, b, *formed), out)]
    for r in range(0, kept_rows, tile):
        m = min(tile, kept_rows - r)
        x, y, ss = a[r:r + m + reach], b[r:r + m + reach], formed[0, :m + reach]
        np.add(np.square(x, out=ss), np.square(y), out=ss)
        np.multiply(x, y, out=formed[1, :m + reach])
        # a and b are read in place, their products from the first row of ``formed``
        for first, (axis0, axis1) in zip((r, r, 0, 0), passes):
            for rows, dest in axis0:
                np.matmul(band[:m, :m + reach], rows[..., first:first + m + reach, :], out=dest[..., :m, :])
            for rows, dest in axis1:
                np.matmul(rows[..., :m, :], band_t, out=dest[..., :m, :])
        yield slice(r, r + m), out[:, :m]


def _ssim_components(a: np.ndarray, b: np.ndarray, dynamic_range: float, luminance: bool):
    """``(mean(lum*cs), mean(cs))``, the first None unless ``luminance``. var_a and var_b
    enter only as a sum, so one moment of the summed squares, W(a*a + b*b), carries both,
    exactly twice W(a*a) when ``a`` is ``b``. One pass over the moment blocks fills a
    compact cs plane and, with ``luminance``, a lum*cs plane, so both means run over
    whole contiguous planes."""
    if a.shape[0] < SSIM_WINDOW_SIZE or a.shape[1] < SSIM_WINDOW_SIZE:
        raise ValueError(
            f"images of shape {a.shape} are smaller than the {SSIM_WINDOW_SIZE}x"
            f"{SSIM_WINDOW_SIZE} SSIM window"
        )
    c1, c2 = (SSIM_K1 * dynamic_range) ** 2, (SSIM_K2 * dynamic_range) ** 2
    cs = np.empty((a.shape[0] - SSIM_WINDOW_SIZE + 1, a.shape[1] - SSIM_WINDOW_SIZE + 1))
    full = np.empty_like(cs) if luminance else None
    for rows, (mu_a, mu_b, e_ss, e_ab) in _moment_blocks(a, b):
        # one line each, so the last block's ab is freed before this ss is formed;
        # 2 * (mu_a * mu_b) is (2 * mu_a) * mu_b unless the product is subnormal
        ab = mu_a * mu_b
        ss = mu_a * mu_a + mu_b * mu_b
        np.divide(2 * (e_ab - ab) + c2, (e_ss - ss) + c2, out=cs[rows])
        if luminance:
            np.multiply((2 * ab + c1) / (ss + c1), cs[rows], out=full[rows])
    return (None if full is None else float(np.mean(full))), float(np.mean(cs))


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


def _planes(a: AmplitudeImage, b: AmplitudeImage):
    """The two planes SSIM compares, and the range its constants scale with: ``a``'s."""
    if not (isinstance(a, AmplitudeImage) and isinstance(b, AmplitudeImage)):
        raise ValueError(f"SSIM compares two AmplitudeImages, got {type(a).__name__} and {type(b).__name__}")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a.values, b.values, a.dynamic_range


def ssim(a: AmplitudeImage, b: AmplitudeImage) -> float:
    """Mean SSIM over valid 11x11 Gaussian windows."""
    return _ssim_terms(*_planes(a, b), 1)[0][0]


def ms_ssim_scale_count(shape: tuple[int, int]) -> int:
    """Number of dyadic scales, at most five, that keep both dimensions >= the SSIM window."""
    scales = 0
    h, w = shape
    while scales < MSSSIM_WEIGHTS.size and min(h, w) >= SSIM_WINDOW_SIZE:
        scales += 1
        h, w = h // 2, w // 2
    return scales


def _downsample2(plane: np.ndarray) -> np.ndarray:
    """2x2 means, an odd last row or column dropped: four strided views summed in order, then scaled."""
    h, w = plane.shape
    trimmed = plane[: 2 * (h // 2), : 2 * (w // 2)]
    out = np.add(trimmed[0::2, 0::2], trimmed[1::2, 0::2])
    out += trimmed[0::2, 1::2]
    out += trimmed[1::2, 1::2]
    out *= 0.25
    return out


def _combine_scales(terms) -> float:
    n_scales = len(terms)
    weights = MSSSIM_WEIGHTS[:n_scales] / MSSSIM_WEIGHTS[:n_scales].sum()
    score = 1.0
    for level, (full, cs) in enumerate(terms):
        term = full if level == n_scales - 1 else cs
        score *= max(term, 0.0) ** weights[level]
    return float(score)


def ms_ssim(a: AmplitudeImage, b: AmplitudeImage) -> float:
    """Multi-scale SSIM with the standard five-scale weighting.

    Contrast-structure terms are accumulated at the coarser scales and the
    full SSIM enters at the last scale; inputs too small for five scales use
    as many scales as fit (``ms_ssim_scale_count``), weights renormalized; a plane
    smaller than the window raises the SSIM pass's window error.
    """
    pa, pb, drange = _planes(a, b)
    return _combine_scales(_ssim_terms(pa, pb, drange, ms_ssim_scale_count(pa.shape)))


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
    # 1-based ranks of the positives, tied scores sharing their group's mean rank; the
    # positives are searched in sorted order, and their half-integer ranks sum exactly
    ordered = np.sort(scores)
    positives = np.sort(scores[labels])
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
    check_kind(path, "fingerprint")
    return read_raster(path).values.real


def evaluate_pair(source: AmplitudeImage, reference: AmplitudeImage) -> MetricReport:
    """The quality metrics of one (source, reference) image pair; a caller that
    scores a fingerprint attaches its ``auc_roc`` with ``dataclasses.replace``.

    One SSIM pass serves both SSIM (its first scale) and MS-SSIM, whose scale
    count the report keeps, and |Delta-ENL| reuses the two ENLs; every value
    equals what the standalone function returns.
    """
    pa, pb, drange = _planes(source, reference)
    terms = _ssim_terms(pa, pb, drange, ms_ssim_scale_count(pa.shape))
    enl_source, enl_reference = enl(source), enl(reference)
    return MetricReport(
        ssim=terms[0][0],
        msssim=_combine_scales(terms),
        enl_source=enl_source,
        enl_reference=enl_reference,
        delta_enl_pct=_delta_enl_pct(enl_source, enl_reference),
        msssim_scales=len(terms),
    )
