"""Splice forgery creation: donor edits, pixel-exact splicing, global edits.

Donor edits follow the catalog of local editing operations (blur at a fixed
sigma; up/downscale and rotation with "near"/"far" parameter ranges); global
edits cover the whole-image operations used for the counter-forensic
ablation (scale round trips and zero-mean additive noises).

Resampling is bicubic (Keys kernel, a = -0.5) in float64. Resize sampling
clamps to the edge so constant inputs stay constant; rotation fills pixels
falling outside the source frame with zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import AmplitudeImage, RasterError, TamperMask
from .speckle import rng

EDIT_KINDS = ("none", "gaussian_blur", "upscale", "downscale", "rotate")
RANGE_CLASSES = ("near", "far", "fixed")

# Local donor edit parameter ranges; blur sigma is fixed.
EDIT_PARAMETER_RANGES = {
    ("upscale", "near"): (1.05, 1.5),
    ("upscale", "far"): (1.5, 2.0),
    ("downscale", "near"): (0.65, 0.95),
    ("downscale", "far"): (0.5, 0.65),
    ("rotate", "near"): (5.0, 15.0),
    ("rotate", "far"): (15.0, 45.0),
}
BLUR_SIGMA = 0.5

GLOBAL_EDIT_KINDS = (
    "gaussian_blur",
    "updownscale",
    "downupscale",
    "additive_gaussian",
    "additive_laplacian",
    "additive_poisson",
    "additive_uniform",
)

# Whole-image edit defaults: scale-chain factors per class, noise levels
# tied to the 16-bit full scale, uniform support half-width.
GLOBAL_SCALE_FACTORS = {"near": 1.05, "far": 1.5}
GLOBAL_NOISE_LEVEL = 0.0005 * (2**16 - 1)
GLOBAL_UNIFORM_HALF_WIDTH = 50.0


@dataclass(frozen=True)
class EditOp:
    """One donor editing operation; parameter is drawn from the class range
    unless range_class is "fixed". A parameter that would go unused, for
    "none" or a drawn range class, is rejected."""

    kind: str
    parameter: float | None = None
    range_class: str = "near"

    def __post_init__(self):
        if self.kind not in EDIT_KINDS:
            raise ValueError(f"unknown edit kind {self.kind!r}")
        if self.range_class not in RANGE_CLASSES:
            raise ValueError(f"unknown range class {self.range_class!r}")
        if self.range_class == "fixed" and self.kind not in ("none",) and self.parameter is None:
            raise ValueError("fixed-range edits require an explicit parameter")
        p = self.parameter
        if p is not None and not np.isfinite(p):
            raise ValueError(f"edit parameter must be finite, got {p}")
        if p is not None and self.kind == "none":
            raise ValueError(f"edit kind 'none' takes no parameter, got {p}")
        if p is not None and (self.kind, self.range_class) in EDIT_PARAMETER_RANGES:
            raise ValueError(f"{self.kind} with range class {self.range_class!r} draws its parameter, "
                             f"so {p} would be ignored; pass it with range class 'fixed'")
        if self.kind == "gaussian_blur" and p is not None and p < 0:
            raise ValueError(f"gaussian_blur sigma must be nonnegative, got {p}")
        if self.range_class == "fixed" and self.kind in ("upscale", "downscale") and p <= 0:
            raise ValueError(f"{self.kind} factor must be positive, got {p}")


@dataclass(frozen=True)
class GlobalEditOp:
    """One whole-image editing operation with catalog default parameters; a given
    parameter must be finite, a scale factor positive and any other nonnegative."""

    kind: str
    range_class: str = "near"
    parameter: float | None = None

    def __post_init__(self):
        if self.kind not in GLOBAL_EDIT_KINDS:
            raise ValueError(f"unknown global edit kind {self.kind!r}")
        if self.range_class not in ("near", "far"):
            raise ValueError(f"unknown range class {self.range_class!r}")
        p = self.parameter
        if p is not None and not np.isfinite(p):
            raise ValueError(f"global edit parameter must be finite, got {p}")
        if p is not None and self.kind in ("updownscale", "downupscale") and p <= 0:
            raise ValueError(f"{self.kind} factor must be positive, got {p}")
        if p is not None and p < 0:
            raise ValueError(f"{self.kind} parameter must be nonnegative, got {p}")


@dataclass(frozen=True)
class SpliceSpec:
    """Placement of a congruent donor/target region pair.

    Origins are (row, col) of the region's top-left corner; the stencil is a
    binary plane selecting which pixels inside the bounding box are copied.
    A plain ``(height, width)`` rectangle is accepted and expanded to an
    all-ones stencil.
    """

    donor_origin: tuple[int, int]
    target_origin: tuple[int, int]
    region: object  # (h, w) tuple or binary stencil array

    def __post_init__(self):
        region = self.region
        if isinstance(region, tuple):
            h, w = region
            stencil = np.ones((int(h), int(w)), dtype=np.uint8)
        else:
            stencil = np.asarray(region)
            if not np.isin(stencil, (0, 1)).all():
                raise ValueError("stencil values must be exactly 0 or 1")
            stencil = stencil.astype(np.uint8)
        if stencil.ndim != 2 or stencil.size == 0 or stencil.sum() == 0:
            raise ValueError("stencil must be a nonempty 2D binary plane")
        stencil.flags.writeable = False
        object.__setattr__(self, "region", stencil)
        object.__setattr__(self, "donor_origin", (int(self.donor_origin[0]), int(self.donor_origin[1])))
        object.__setattr__(self, "target_origin", (int(self.target_origin[0]), int(self.target_origin[1])))

    @property
    def stencil(self) -> np.ndarray:
        return self.region

    @property
    def box_shape(self) -> tuple[int, int]:
        return self.region.shape


# ---------------------------------------------------------------------------
# Bicubic resampling primitives
# ---------------------------------------------------------------------------


def _cubic_weights(t: np.ndarray) -> np.ndarray:
    """Keys bicubic kernel with a = -0.5; exact identity at integer offsets."""
    t = np.abs(t)
    out = np.zeros_like(t)
    near = t <= 1.0
    far = (t > 1.0) & (t < 2.0)
    tn = t[near]
    tf = t[far]
    out[near] = (1.5 * tn - 2.5) * tn * tn + 1.0
    out[far] = ((-0.5 * tf + 2.5) * tf - 4.0) * tf + 2.0
    return out


def _bicubic_sample(src: np.ndarray, rows: np.ndarray, cols: np.ndarray, border: str) -> np.ndarray:
    """Sample ``src`` at float coordinates with the bicubic kernel.

    border "replicate" clamps coordinates to the edge; border "zero" treats
    out-of-frame samples as 0.
    """
    h, w = src.shape
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    out = np.zeros(rows.shape, dtype=np.float64)
    for dr in range(-1, 3):
        rr = r0 + dr
        wy = _cubic_weights(rows - rr)
        rr_c = np.clip(rr, 0, h - 1)
        row_valid = (rr >= 0) & (rr < h)
        for dc in range(-1, 3):
            cc = c0 + dc
            wx = _cubic_weights(cols - cc)
            cc_c = np.clip(cc, 0, w - 1)
            weight = wy * wx
            if border == "zero":
                weight = weight * (row_valid & (cc >= 0) & (cc < w))
            out += weight * src[rr_c, cc_c]
    return out


def edited_shape(shape: tuple[int, int], op: EditOp, parameter: float) -> tuple[int, int]:
    """Shape of the frame ``op`` makes from a ``shape`` donor: round(dim *
    factor), at least 1, for a resize; unchanged otherwise."""
    if op.kind not in ("upscale", "downscale"):
        return tuple(shape)
    return _scaled_shape(shape, parameter)


def _scaled_shape(shape, factor):
    return max(int(round(shape[0] * factor)), 1), max(int(round(shape[1] * factor)), 1)


def _source_coords(src_shape, frame_shape, window=None, angle_deg=None):
    """Source (row, col) of the output pixels in ``window`` = (row, col,
    height, width) of the output frame (default: all of it), for a resize of
    ``src_shape`` to ``frame_shape`` or, given ``angle_deg``, a rotation."""
    h, w = src_shape
    r0, c0, bh, bw = window or (0, 0, *frame_shape)
    rows = np.arange(r0, r0 + bh, dtype=np.float64)[:, None]
    cols = np.arange(c0, c0 + bw, dtype=np.float64)[None, :]
    if angle_deg is None:
        oh, ow = frame_shape
        rows = (rows + 0.5) * (h / oh) - 0.5
        cols = (cols + 0.5) * (w / ow) - 0.5
    else:
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        alpha = np.deg2rad(angle_deg)
        rr, cc = rows - cy, cols - cx
        # Positive angles rotate the content counterclockwise (as displayed
        # with row 0 on top); at multiples of 90 deg the mapping is an exact
        # index permutation.
        rows = cy + np.sin(alpha) * cc + np.cos(alpha) * rr
        cols = cx + np.cos(alpha) * cc - np.sin(alpha) * rr
    return np.broadcast_arrays(rows, cols)


def _resize_to(values: np.ndarray, out_shape: tuple[int, int]) -> np.ndarray:
    """Bicubic resize to an explicit shape, pixel-center aligned, edge clamped."""
    return _bicubic_sample(values, *_source_coords(values.shape, out_shape), border="replicate")


def resize(values: np.ndarray, factor: float) -> np.ndarray:
    """Bicubic resize by a scale factor; output dims are round(dim * factor)."""
    if not factor > 0:
        raise ValueError(f"resize factor must be positive, got {factor}")
    return _resize_to(values, _scaled_shape(values.shape, factor))


# ---------------------------------------------------------------------------
# Donor editing
# ---------------------------------------------------------------------------


def sample_edit_parameter(op: EditOp, seed: int) -> float:
    """Resolve the edit parameter: fixed value, blur sigma, or a range draw."""
    if op.kind == "none":
        return 0.0
    if op.range_class == "fixed":
        return float(op.parameter)
    if op.kind == "gaussian_blur":
        return BLUR_SIGMA if op.parameter is None else float(op.parameter)
    low, high = EDIT_PARAMETER_RANGES[(op.kind, op.range_class)]
    return float(rng(seed).uniform(low, high))


def _blur_radius(sigma: float) -> int:
    """Half-width of the blur kernel: ndimage's truncation at 4 sigma."""
    return int(4.0 * sigma + 0.5)


def _gaussian_blur(values: np.ndarray, sigma: float) -> np.ndarray:
    """``ndimage.gaussian_filter(values, sigma, mode="reflect")`` bit for bit: its kernel,
    axis 0 then axis 1 over symmetric padding, and its fold of mirrored taps, outermost first."""
    out = np.asarray(values, dtype=np.float64)
    if sigma <= 1e-15:
        return out.copy()
    r = _blur_radius(sigma)
    x = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x**2)
    w = w / w.sum()
    for _ in range(2):
        n = out.shape[0]
        padded = np.pad(out.T, ((0, 0), (r, r)), "symmetric")
        out = padded[:, r : r + n] * w[r]
        for j in range(r, 0, -1):
            out += (padded[:, r - j : r - j + n] + padded[:, r + j : r + j + n]) * w[r + j]
    return out


def edit_donor(donor: AmplitudeImage, op: EditOp, seed: int = 0, window=None) -> AmplitudeImage:
    """Apply one editing operation to a donor image; output stays nonnegative.

    Only ``window`` = (row, col, height, width) of the edited frame (shape
    ``edited_shape``; default all of it) is computed, bit-identical to that
    crop of the whole edited frame.
    """
    if op.kind == "none" and window is None:
        return donor
    parameter = sample_edit_parameter(op, seed)
    values = donor.values
    frame = edited_shape(donor.shape, op, parameter)
    r0, c0, bh, bw = window or (0, 0, *frame)
    if r0 < 0 or c0 < 0 or r0 + bh > frame[0] or c0 + bw > frame[1]:
        raise RasterError("donor region out of bounds")
    if op.kind in ("none", "gaussian_blur"):
        # box plus the blur kernel's radius, clipped to the donor (whose edges reflect)
        margin = _blur_radius(parameter)
        top, left = max(r0 - margin, 0), max(c0 - margin, 0)
        part = values[top : r0 + bh + margin, left : c0 + bw + margin]
        if op.kind == "gaussian_blur":
            part = _gaussian_blur(part, parameter)
        edited = part[r0 - top : r0 - top + bh, c0 - left : c0 - left + bw]
    else:
        angle = parameter if op.kind == "rotate" else None
        coords = _source_coords(donor.shape, frame, (r0, c0, bh, bw), angle)
        edited = _bicubic_sample(values, *coords, border="replicate" if angle is None else "zero")
    return AmplitudeImage(np.maximum(edited, 0.0), donor.dynamic_range_bits, copy=False)


# ---------------------------------------------------------------------------
# Splicing
# ---------------------------------------------------------------------------


def splice(
    target: AmplitudeImage, edited_donor: AmplitudeImage, spec: SpliceSpec
) -> tuple[AmplitudeImage, TamperMask]:
    """Copy the donor region over the target region, pixel-exact, with mask."""
    bh, bw = spec.box_shape
    dr, dc = spec.donor_origin
    tr, tc = spec.target_origin
    if dr < 0 or dc < 0 or dr + bh > edited_donor.height or dc + bw > edited_donor.width:
        raise RasterError("donor region out of bounds")
    if tr < 0 or tc < 0 or tr + bh > target.height or tc + bw > target.width:
        raise RasterError("target region out of bounds")
    sel = spec.stencil == 1
    out = target.values.copy()
    out[tr : tr + bh, tc : tc + bw][sel] = edited_donor.values[dr : dr + bh, dc : dc + bw][sel]
    mask = np.zeros(target.shape, dtype=np.uint8)
    mask[tr : tr + bh, tc : tc + bw][sel] = 1
    return AmplitudeImage(out, target.dynamic_range_bits, copy=False), TamperMask(mask, copy=False)


def draw_origins(gen, donor_shape, target_shape, box, target_origin=None, disjoint=False):
    """Draw the (row, col) origins of a ``box``-sized region in the donor and
    the target; returns ``(donor_origin, target_origin)``.

    Each attempt draws donor row, donor col, target row, target col in that
    order; a given ``target_origin`` is kept and its draws are skipped. With
    ``disjoint`` (donor and target are the same tile) attempts repeat until
    the two boxes do not overlap.
    """
    bh, bw = box
    for name, (h, w) in (("edited donor", donor_shape), ("target tile", target_shape)):
        if h < bh or w < bw:
            raise RasterError(f"{name} {(h, w)} is too small for a {bh}x{bw} region")

    def draw(shape):
        return int(gen.integers(shape[0] - bh + 1)), int(gen.integers(shape[1] - bw + 1))

    for _ in range(1000):
        donor = draw(donor_shape)
        target = draw(target_shape) if target_origin is None else target_origin
        if not (disjoint and abs(donor[0] - target[0]) < bh and abs(donor[1] - target[1]) < bw):
            return donor, target
    raise RasterError("could not place disjoint donor/target regions on a single tile")


def place_splice(gen, target, donor, region, edit, edit_seed, target_origin=None, disjoint=False):
    """Paste the ``edit``ed ``region`` of ``donor`` into ``target``, the splice
    stage of ``sarfx forge`` and of every experiment job: resolve the parameter
    from ``edit_seed``, draw the origins from ``gen`` in the edited frame
    (``draw_origins``), edit only the drawn box and splice it. Returns (spliced,
    mask, record); the record holds the edit and placement every provenance carries."""
    box = SpliceSpec((0, 0), (0, 0), region).box_shape
    parameter = sample_edit_parameter(edit, edit_seed)
    frame = edited_shape(donor.shape, edit, parameter)
    donor_origin, target_origin = draw_origins(gen, frame, target.shape, box, target_origin, disjoint)
    edited = edit_donor(donor, edit, edit_seed, window=(*donor_origin, *box))
    spliced, mask = splice(target, edited, SpliceSpec((0, 0), target_origin, region))
    return spliced, mask, {
        "edit_kind": edit.kind,
        "edit_range_class": edit.range_class,
        "edit_parameter": parameter,
        "donor_origin": list(donor_origin),
        "target_origin": list(target_origin),
        "region_shape": list(box),
    }


def random_splice(
    product_tiles,
    region=(128, 128),
    edit: EditOp = EditOp("none"),
    seed: int = 0,
    target_index: int | None = None,
):
    """Draw donor/target tiles and region placements from one product.

    With a single tile, donor and target regions are re-drawn until their
    bounding boxes are disjoint. Returns (spliced, mask, provenance dict);
    every draw is recorded and reproducible from the seed.
    """
    tiles = list(product_tiles)
    if not tiles:
        raise ValueError("no tiles supplied")
    probe = SpliceSpec((0, 0), (0, 0), region)
    bh, bw = probe.box_shape

    gen = rng(seed)
    if target_index is None:
        target_index = int(gen.integers(len(tiles)))
    donor_index = int(gen.integers(len(tiles)))
    target = tiles[target_index]
    if target.height < bh or target.width < bw:
        raise RasterError(f"target tile {target.shape} is too small for a {bh}x{bw} region")

    # Same-tile splices need room for two disjoint boxes; fall back to a
    # different donor tile when one exists.
    if donor_index == target_index and target.height < 2 * bh and target.width < 2 * bw:
        if len(tiles) == 1:
            raise RasterError(
                f"single {target.shape} tile is too small for disjoint {bh}x{bw} regions"
            )
        others = [k for k in range(len(tiles)) if k != target_index]
        donor_index = others[int(gen.integers(len(others)))]

    edit_seed = int(gen.integers(np.iinfo(np.int64).max))
    spliced, mask, record = place_splice(
        gen, target, tiles[donor_index], region, edit, edit_seed, disjoint=donor_index == target_index
    )
    provenance = {
        "seed": int(seed),
        "donor_tile_index": donor_index,
        "target_tile_index": target_index,
        **record,
        "region_pixels": int(probe.stencil.sum()),
    }
    return spliced, mask, provenance


# ---------------------------------------------------------------------------
# Global (whole-image) edits
# ---------------------------------------------------------------------------


def global_edit(image: AmplitudeImage, op: GlobalEditOp, seed: int = 0) -> AmplitudeImage:
    """Apply a whole-image edit; output is clipped into the declared range."""
    gen = rng(seed)
    values = image.values
    if op.parameter is not None:
        p = float(op.parameter)
    elif op.kind in ("updownscale", "downupscale"):
        p = GLOBAL_SCALE_FACTORS[op.range_class]
    else:
        p = {"gaussian_blur": BLUR_SIGMA, "additive_uniform": GLOBAL_UNIFORM_HALF_WIDTH}.get(
            op.kind, GLOBAL_NOISE_LEVEL)

    if op.kind == "gaussian_blur":
        out = _gaussian_blur(values, p)
    elif op.kind in ("updownscale", "downupscale"):
        first = p if op.kind == "updownscale" else 1.0 / p
        out = _resize_to(resize(values, first), image.shape)
    elif op.kind == "additive_gaussian":
        out = values + gen.normal(0.0, p, size=values.shape)
    elif op.kind == "additive_laplacian":
        out = values + gen.laplace(0.0, p, size=values.shape)
    elif op.kind == "additive_poisson":
        # Zero-centered: draw ~ P(lambda), add (draw - lambda).
        out = values + (gen.poisson(p, size=values.shape).astype(np.float64) - p)
    else:
        out = values + gen.uniform(-p, p, size=values.shape)

    out = np.clip(out, 0.0, image.dynamic_range)
    return AmplitudeImage(out, image.dynamic_range_bits, copy=False)
