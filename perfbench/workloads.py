"""Synthetic inputs and experiment configs for the benchmark workloads.

Everything here uses numpy alone, never the package under test, so a change
to the program cannot change the inputs it is measured on. Rasters are
written in the documented SARF container: a 32-byte little-endian header
(``SARF``, kind byte, dynamic-range bits, 10 reserved bytes, u64 height,
u64 width) followed by the row-major payload.

Each workload's tiles are smooth positive scenes, speckled (fully developed,
complex circular Gaussian) and filtered through a separable raised-cosine
response H, which is what a pristine acquisition looks like to the attack.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TILE = 1024
MASTER_SEED = 20240709
SCENE_LEVEL = 2000.0
H_CUTOFF = 0.7  # H's cutoff as a fraction of Nyquist

_HEADER = "<4sBB10xQQ"
_KIND_AMPLITUDE, _KIND_COMPLEX, _KIND_MASK = 1, 2, 3

GEO_EDITS = [
    {"kind": kind, "range_class": rc}
    for kind in ("upscale", "downscale", "rotate")
    for rc in ("near", "far")
]


@dataclass(frozen=True)
class Workload:
    name: str
    tiles: int  # manifest items, all in one product
    edits: list
    filter: str  # "self-direct", "known" or "sibling-rc"
    fingerprints: bool

    @property
    def jobs(self) -> int:
        return self.tiles * len(self.edits)


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("splice-geo-selfest", tiles=1, edits=GEO_EDITS, filter="self-direct", fingerprints=True),
        Workload(
            "blur-knownh",
            tiles=4,
            edits=[{"kind": "gaussian_blur"}, {"kind": "none"}],
            filter="known",
            fingerprints=False,
        ),
        Workload("fit-shared-rc", tiles=4, edits=[{"kind": "none"}], filter="sibling-rc", fingerprints=False),
    )
}


def write_sarf(path, kind: int, height: int, width: int, payload: bytes, bits: int = 0) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(_HEADER, b"SARF", kind, bits, height, width))
        fh.write(payload)


def write_amplitude(path, values: np.ndarray) -> None:
    write_sarf(path, _KIND_AMPLITUDE, *values.shape, values.astype("<f8").tobytes(), bits=16)


def write_complex(path, z: np.ndarray) -> None:
    payload = z.real.astype("<f8").tobytes() + z.imag.astype("<f8").tobytes()
    write_sarf(path, _KIND_COMPLEX, *z.shape, payload)


def read_sarf(path) -> np.ndarray:
    """Payload of an amplitude or mask raster as a 2D array (complex: re + i im)."""
    raw = Path(path).read_bytes()
    magic, kind, _bits, height, width = struct.unpack(_HEADER, raw[:32])
    if magic != b"SARF":
        raise ValueError(f"{path}: not a SARF raster")
    if kind == _KIND_MASK:
        return np.frombuffer(raw, np.uint8, offset=32).reshape(height, width)
    planes = np.frombuffer(raw, "<f8", offset=32)
    if kind == _KIND_COMPLEX:
        n = height * width
        return (planes[:n] + 1j * planes[n:]).reshape(height, width)
    return planes.reshape(height, width)


def raised_cosine_h(n: int, cutoff: float = H_CUTOFF) -> np.ndarray:
    """DC-centered separable raised cosine, unit peak, zero beyond the cutoff."""
    fa = np.abs(np.arange(n, dtype=np.float64) - n // 2)
    fc = cutoff * (n // 2)
    axis = np.where(fa <= fc, 0.5 - 0.5 * np.cos(np.pi * (fa - fc) / fc), 0.0)
    plane = np.outer(axis, axis)
    return plane / plane.max()


def smooth_scene(rng: np.random.Generator, n: int) -> np.ndarray:
    """Positive smooth reflectivity: white noise low-passed to ~n/24 px blobs."""
    spectrum = np.fft.rfft2(rng.standard_normal((n, n)))
    fy = np.fft.fftfreq(n)[:, None]
    fx = np.fft.rfftfreq(n)[None, :]
    sigma = n / 24.0
    base = np.fft.irfft2(spectrum * np.exp(-2.0 * (np.pi * sigma) ** 2 * (fx**2 + fy**2)), (n, n))
    base = (base - base.min()) / (base.max() - base.min())
    return (0.25 + base) * SCENE_LEVEL


def acquire(rng: np.random.Generator, scene: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Complex acquisition of a scene: speckle, then circular filtering through H."""
    speckle = (rng.standard_normal(scene.shape) + 1j * rng.standard_normal(scene.shape)) / np.sqrt(2)
    return np.fft.ifft2(np.fft.fft2(scene * speckle) * np.fft.ifftshift(h))


def texture_fingerprint(values: np.ndarray) -> np.ndarray:
    """Texture stand-in detector: local variance of the high-pass residual,
    normalized by squared local brightness (9x9 box windows)."""
    from scipy import ndimage

    resid = values - ndimage.uniform_filter(values, 3)
    var = ndimage.uniform_filter(resid * resid, 9)
    mean = np.maximum(ndimage.uniform_filter(values, 9), 1e-9)
    return var / (mean * mean)


def make_inputs(workload: Workload, seed: int, in_dir: Path, out_dir: Path, size: int = TILE) -> Path:
    """Write the workload's rasters and config JSON; returns the config path.

    The seed draws the tiles' scenes and speckle. The experiment's master
    seed, which draws edit parameters and splice placements, is held fixed:
    the cost of a whole-tile donor edit grows with the drawn scale factor, so
    drawing it from the seed would move throughput and peak memory by seed
    alone.
    """
    in_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    h = raised_cosine_h(size)
    manifest = []
    for k in range(workload.tiles):
        tile = np.abs(acquire(rng, smooth_scene(rng, size), h))
        path = in_dir / f"t{k}.sarf"
        write_amplitude(path, tile)
        item = {"id": f"t{k}", "path": str(path), "product": "P"}
        if workload.fingerprints:
            fp = in_dir / f"t{k}_fp.sarf"
            write_amplitude(fp, texture_fingerprint(tile))
            item["fingerprint"] = str(fp)
        manifest.append(item)

    if workload.filter == "self-direct":
        attack = {"filter": {"estimate": {"strategy": "direct", "sources": "self"}}}
    elif workload.filter == "known":
        write_amplitude(in_dir / "h.sarf", h)
        attack = {"filter": {"known": str(in_dir / "h.sarf")}}
    else:
        # The fit's iteration count depends on the sibling's content (6 to 15
        # for seeded draws), so the sibling is drawn from the fixed master
        # seed: every seed then fits the same H with the same work.
        fixed = np.random.Generator(np.random.Philox(key=np.uint64(MASTER_SEED)))
        sibling = in_dir / "sibling.sarf"
        write_complex(sibling, acquire(fixed, smooth_scene(fixed, size), h))
        attack = {"filter": {"estimate": {"strategy": "raised_cosine", "sources": [str(sibling)]}}}

    config = {
        "schema_version": 1,
        "manifest": manifest,
        "edits": workload.edits,
        "region": [size // 8, size // 8],
        "attack": attack,
        "master_seed": MASTER_SEED,
        "out_dir": str(out_dir),
    }
    config_path = in_dir / "experiment.json"
    config_path.write_text(json.dumps(config, indent=1))
    return config_path
