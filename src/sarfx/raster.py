"""Core raster types, invariant enforcement, binary container I/O, and tiling.

The three image kinds used throughout the package are thin immutable wrappers
around float64/uint8 numpy planes:

* :class:`ComplexImage`   -- full complex signal, one complex128 plane
* :class:`AmplitudeImage` -- nonnegative real product (what gets released)
* :class:`TamperMask`     -- binary {0,1} plane marking spliced pixels

Files use a simple 32-byte header ("SARF" magic) followed by a row-major
little-endian payload; complex payloads are plane-sequential (all re, then
all im). Masks can additionally be exported as 8-bit PGM for eyeballing.
"""

from __future__ import annotations

import os
import struct
import uuid
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, replace
from pathlib import Path

import numpy as np

MAGIC = b"SARF"
HEADER_SIZE = 32
_HEADER_FMT = "<4sBB10xQQ"  # magic, kind, dynamic_range_bits, reserved, height, width

KIND_AMPLITUDE_F64 = 1
KIND_COMPLEX_F64 = 2
KIND_MASK_U8 = 3

_PIXEL_BYTES = {KIND_AMPLITUDE_F64: 8, KIND_COMPLEX_F64: 16, KIND_MASK_U8: 1}


class RasterError(ValueError):
    """Malformed raster file or image invariant violation."""


def _locked(values, dtype, copy: bool = True) -> np.ndarray:
    """``values`` as a read-only C-contiguous plane; ``copy=False`` keeps an array that fits."""
    arr = np.array(values, dtype=dtype, order="C", copy=copy or None)
    arr.flags.writeable = False
    return arr


def _check_plane(arr: np.ndarray, name: str) -> None:
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise RasterError(f"{name} must be a 2D plane of at least 1x1, got shape {arr.shape}")
    if arr.dtype.kind in "fc" and not np.all(np.isfinite(arr)):  # an integer plane is finite
        raise RasterError(f"{name} contains NaN or Inf values")


class PlaneShape:
    """``height``/``width``/``shape`` of a 2D raster type, read from its ``values`` plane."""

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class ComplexImage(PlaneShape):
    """2D complex raster, the full SAR signal: one complex128 plane. ``values`` is
    copied; with ``copy=False`` a C-contiguous complex128 plane is held, not copied,
    and nothing may write to it after."""

    values: np.ndarray
    copy: InitVar[bool] = True

    def __post_init__(self, copy):
        values = _locked(self.values, np.complex128, copy)
        _check_plane(values, "signal")
        object.__setattr__(self, "values", values)

    def amplitude(self, dynamic_range_bits: int = 16) -> "AmplitudeImage":
        """|z| per pixel; always nonnegative by construction."""
        return AmplitudeImage(np.abs(self.values), dynamic_range_bits, copy=False)


@dataclass(frozen=True)
class AmplitudeImage(PlaneShape):
    """2D nonnegative real raster, the released SAR product. ``values`` is copied;
    with ``copy=False``, as for the other raster types, a plane the caller has
    just computed is held as it is, and nothing may write to it after."""

    values: np.ndarray
    dynamic_range_bits: int = 16
    copy: InitVar[bool] = True

    def __post_init__(self, copy):
        values = _locked(self.values, np.float64, copy)
        _check_plane(values, "values")
        if np.any(values < 0):
            raise RasterError("amplitude values must be nonnegative")
        if not (1 <= int(self.dynamic_range_bits) <= 64):
            raise RasterError(f"unsupported dynamic_range_bits {self.dynamic_range_bits}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dynamic_range_bits", int(self.dynamic_range_bits))

    @property
    def dynamic_range(self) -> float:
        """Full-scale value, 2**bits - 1."""
        return float(2 ** self.dynamic_range_bits - 1)

    def quantized(self) -> np.ndarray:
        """Rounded integer export; values must already fit the declared range."""
        bits, top = self.dynamic_range_bits, self.values.max()
        # above 53 bits float(2**bits - 1) is 2**bits, which the export type cannot hold
        if top > self.dynamic_range or top >= 2.0**bits:
            raise RasterError(f"values exceed 2^{bits}-1; rescale before quantized export")
        dtype = np.uint16 if bits <= 16 else np.uint32 if bits <= 32 else np.uint64
        return np.round(self.values).astype(dtype)


@dataclass(frozen=True)
class TamperMask(PlaneShape):
    """Binary {0,1} plane marking manipulated pixels."""

    values: np.ndarray
    copy: InitVar[bool] = True

    def __post_init__(self, copy):
        raw = np.asarray(self.values)
        if not ((raw == 0) | (raw == 1)).all():
            raise RasterError("mask values must be exactly 0 or 1")
        values = _locked(raw, np.uint8, copy)
        _check_plane(values, "mask")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class RasterHeader:
    """Decoded container header."""

    kind: int
    height: int
    width: int
    dynamic_range_bits: int


RasterImage = ComplexImage | AmplitudeImage | TamperMask


@contextmanager
def atomic_open(path, mode: str):
    """Write through a temp file beside ``path`` that replaces it on success, so
    a failed write leaves neither a partial file nor the temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, mode.replace("w", "x")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_raster(image: RasterImage, path) -> None:
    """Serialize an image to the SARF container at ``path``."""
    dtype = "<f8"
    if isinstance(image, AmplitudeImage):
        kind, bits, planes = KIND_AMPLITUDE_F64, image.dynamic_range_bits, (image.values,)
    elif isinstance(image, ComplexImage):
        kind, bits, planes = KIND_COMPLEX_F64, 0, (image.values.real, image.values.imag)
    elif isinstance(image, TamperMask):
        kind, bits, planes, dtype = KIND_MASK_U8, 0, (image.values,), np.uint8
    else:
        raise RasterError(f"cannot serialize object of type {type(image).__name__}")
    header = struct.pack(_HEADER_FMT, MAGIC, kind, bits, image.height, image.width)
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        for plane in planes:  # no copy when the plane is already little-endian and contiguous
            fh.write(np.ascontiguousarray(plane, dtype))


def read_header(path) -> RasterHeader:
    """Decode and validate the 32-byte container header."""
    with open(path, "rb") as fh:
        raw = fh.read(HEADER_SIZE)
    if len(raw) != HEADER_SIZE:
        raise RasterError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, kind, bits, height, width = struct.unpack(_HEADER_FMT, raw)
    if magic != MAGIC:
        raise RasterError(f"{path}: bad magic {magic!r}")
    if kind not in _PIXEL_BYTES:
        raise RasterError(f"{path}: unknown kind {kind}")
    if height < 1 or width < 1:
        raise RasterError(f"{path}: degenerate dimensions {height}x{width}")
    return RasterHeader(kind, height, width, bits)


# The kinds of raster that may fill each role a config or command names: the released
# amplitude product is edited and attacked, a complex sibling can reveal H, a mask marks the splice.
_KIND_NAMES = {KIND_AMPLITUDE_F64: "an amplitude", KIND_COMPLEX_F64: "a complex", KIND_MASK_U8: "a mask"}
ROLE_KINDS = {
    "manifest tile": {KIND_AMPLITUDE_F64},
    "known H": {KIND_AMPLITUDE_F64},  # a response is real: a complex one would lose its imaginary part
    "fingerprint": {KIND_AMPLITUDE_F64, KIND_COMPLEX_F64},  # a complex one's real plane may carry signs
    "filter source": {KIND_AMPLITUDE_F64, KIND_COMPLEX_F64},
    "image": {KIND_AMPLITUDE_F64, KIND_COMPLEX_F64},  # to forge, attack, score or take a spectrum of
    "mask": {KIND_MASK_U8},
}


def check_kind(path, role: str) -> RasterHeader:
    """The header of the raster at ``path``, whose kind must be one that ``ROLE_KINDS`` lets fill ``role``."""
    header = read_header(path)
    if header.kind not in ROLE_KINDS[role]:
        article = "an" if role[0] in "aeiou" else "a"
        raise RasterError(f"{path}: {_KIND_NAMES[header.kind]} raster cannot serve as {article} {role}")
    return header


def read_raster(path) -> RasterImage:
    """Read a SARF container; round-trips :func:`write_raster` bit-exactly."""
    header = read_header(path)
    with open(path, "rb") as fh:
        fh.seek(HEADER_SIZE)
        payload = fh.read()
    expected = _PIXEL_BYTES[header.kind] * header.height * header.width
    if len(payload) != expected:
        raise RasterError(
            f"{path}: payload size mismatch (got {len(payload)} bytes, header implies {expected})"
        )
    shape = (header.height, header.width)
    try:  # the image types check each plane; one over the immutable payload is not copied
        if header.kind == KIND_AMPLITUDE_F64:
            values = np.frombuffer(payload, dtype="<f8").reshape(shape)
            return AmplitudeImage(values, header.dynamic_range_bits or 16, copy=False)
        if header.kind == KIND_COMPLEX_F64:
            z = np.empty(shape, np.complex128)  # parts assigned, as re + 1j*im can flip a signed zero
            z.real, z.imag = np.frombuffer(payload, dtype="<f8").reshape(2, *shape)
            return ComplexImage(z, copy=False)
        return TamperMask(np.frombuffer(payload, dtype=np.uint8).reshape(shape), copy=False)
    except RasterError as exc:
        raise RasterError(f"{path}: {exc}") from None


def write_mask_pgm(mask: TamperMask, path) -> None:
    """Export a mask as binary PGM (0/255) for visual inspection."""
    with atomic_open(path, "wb") as fh:
        fh.write(f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii"))
        fh.write((mask.values * np.uint8(255)).tobytes())


def tile(image: RasterImage, tile_size: int, overlap: int):
    """Cut ``image`` into tiles of ``tile_size`` at stride ``tile_size - overlap``.

    Tiles are returned row-major as ``(tile, row_offset, col_offset)``; a
    trailing remainder smaller than a full tile is dropped.
    """
    if not 0 <= overlap < tile_size:
        raise RasterError(f"overlap must satisfy 0 <= overlap < tile_size, got {overlap}")
    if tile_size > image.height or tile_size > image.width:
        raise RasterError(
            f"tile size {tile_size} exceeds image dimensions {image.height}x{image.width}"
        )
    stride = tile_size - overlap
    n_rows = (image.height - tile_size) // stride + 1
    n_cols = (image.width - tile_size) // stride + 1

    origins = [(i * stride, j * stride) for i in range(n_rows) for j in range(n_cols)]
    return [(replace(image, values=image.values[r0:r0 + tile_size, c0:c0 + tile_size]), r0, c0)
            for r0, c0 in origins]
