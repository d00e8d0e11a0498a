"""Raster containers and product tiling.

Builds a synthetic amplitude product, round-trips it through the SARF
container, cuts it into overlapping tiles, and exports a mask as PGM.

Run:  python demos/01_raster_and_tiling.py
"""

import tempfile
from pathlib import Path

import numpy as np

from sarfx import (
    AmplitudeImage,
    ComplexImage,
    TamperMask,
    read_raster,
    tile,
    write_mask_pgm,
    write_raster,
)

work = Path(tempfile.mkdtemp(prefix="sarfx_demo1_"))
print(f"working directory: {work}\n")

# A fake 16-bit product: smooth background plus a few bright scatterers.
rng = np.random.default_rng(1)
scene = rng.uniform(200.0, 800.0, (768, 1024))
for _ in range(12):
    r, c = rng.integers(50, 700), rng.integers(50, 970)
    scene[r : r + 4, c : c + 4] = rng.uniform(20000, 40000)
product = AmplitudeImage(scene, dynamic_range_bits=16)

path = work / "product.sarf"
write_raster(product, path)
back = read_raster(path)
print(f"wrote {path.stat().st_size} bytes; round trip bit-exact:",
      np.array_equal(back.values, product.values))

# A complex raster holds one complex plane; files store it re/im plane-sequentially.
signal = ComplexImage(scene / 100.0 - 1j * scene / 200.0)
write_raster(signal, work / "complex.sarf")
print("complex raster size:", (work / "complex.sarf").stat().st_size, "bytes")

# Overlapping tiles: stride = size - overlap, trailing remainders dropped.
tiles = tile(product, tile_size=512, overlap=256)
print(f"\n512px tiles with 256px overlap: {len(tiles)} tiles")
for piece, row, col in tiles[:4]:
    print(f"  tile at ({row:4d}, {col:4d})  mean={piece.values.mean():8.1f}")
print("  ...")

# Masks are binary planes; PGM export is handy for quick eyeballing.
mask_plane = np.zeros((768, 1024), dtype=np.uint8)
mask_plane[300:428, 400:528] = 1
mask = TamperMask(mask_plane)
write_raster(mask, work / "mask.sarf")
write_mask_pgm(mask, work / "mask.pgm")
print(f"\nmask with {int(mask.values.sum())} marked pixels -> mask.sarf / mask.pgm")

# Quantized export enforces the declared dynamic range.
quantized = product.quantized()
print("quantized dtype:", quantized.dtype, " max:", quantized.max())
