"""Byte pins on the files the CLI and the experiment write.

Each test writes small seeded inputs, runs one command or one experiment and
compares a digest of every output file with a stored digest. The digests were
recorded with numpy 2.4 and scipy 1.17 on x86-64; a refactor of the scoring,
placement, RNG or CSV code must leave all of them unchanged.
"""

import hashlib
import json

import numpy as np
import pytest

from sarfx import (
    AmplitudeImage,
    ComplexImage,
    TamperMask,
    raised_cosine_filter,
    simulate_pristine,
    smooth_reflectivity,
    write_raster,
)
from sarfx.cli import main


def _digest(path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=8).hexdigest()


def _tree_digests(root) -> dict[str, str]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {p.relative_to(root).as_posix(): _digest(p) for p in files}


def _amplitude(path, shape, seed, low=100.0, high=4000.0):
    write_raster(AmplitudeImage(np.random.default_rng(seed).uniform(low, high, shape)), path)


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    # relative paths keep the forge provenance free of the temp directory name
    monkeypatch.chdir(tmp_path)
    return tmp_path


FORGE_PINS = {
    "drawn": {
        "forged.sarf": "8b9c7811fe1a9cd3",
        "forged_mask.sarf": "d95d208d3d6574b3",
        "forged.json": "5c6b578c808e22ad",
    },
    "placed": {
        "forged.sarf": "6387136f6d94dbaf",
        "forged_mask.sarf": "a440627d01869696",
        "forged.json": "9e1eee865d310278",
    },
}


@pytest.mark.parametrize("region", ["24x16", "24x16+5+7"], ids=["drawn", "placed"])
def test_forge_outputs_pinned(workdir, region):
    _amplitude(workdir / "target.sarf", (96, 80), 1)
    _amplitude(workdir / "donor.sarf", (96, 80), 2)
    rc = main([
        "forge", "--target", "target.sarf", "--donor", "donor.sarf",
        "--edit", "rotate", "--edit-class", "near", "--region", region, "--seed", "11",
        "--out-image", "forged.sarf", "--out-mask", "forged_mask.sarf",
        "--out-provenance", "forged.json",
    ])
    assert rc == 0
    pins = FORGE_PINS["placed" if "+" in region else "drawn"]
    assert {name: _digest(workdir / name) for name in pins} == pins


# Other edits of the catalog: a far upscale and a far downscale (the donor box
# is drawn in a resampled frame of another size) and a blur pasted at the
# target's top-left corner.
FORGE_EDIT_PINS = {
    ("upscale", "far", "24x16"): {
        "forged.sarf": "409628df4c7fcae3",
        "forged_mask.sarf": "d95d208d3d6574b3",
        "forged.json": "9ac760e9a688f773",
    },
    ("downscale", "far", "24x16"): {
        "forged.sarf": "cce651981637a6af",
        "forged_mask.sarf": "d95d208d3d6574b3",
        "forged.json": "f11bbab4bc162e4e",
    },
    ("gaussian_blur", "near", "24x16+0+0"): {
        "forged.sarf": "c3fcdeac97f97adc",
        "forged_mask.sarf": "1e9335dadf423fc9",
        "forged.json": "be585936bf5b365a",
    },
}


@pytest.mark.parametrize(
    "edit, edit_class, region", list(FORGE_EDIT_PINS), ids=["upscale-far", "downscale-far", "blur-corner"]
)
def test_forge_edit_outputs_pinned(workdir, edit, edit_class, region):
    _amplitude(workdir / "target.sarf", (96, 80), 1)
    _amplitude(workdir / "donor.sarf", (96, 80), 2)
    rc = main([
        "forge", "--target", "target.sarf", "--donor", "donor.sarf",
        "--edit", edit, "--edit-class", edit_class, "--region", region, "--seed", "11",
        "--out-image", "forged.sarf", "--out-mask", "forged_mask.sarf",
        "--out-provenance", "forged.json",
    ])
    assert rc == 0
    pins = FORGE_EDIT_PINS[edit, edit_class, region]
    assert {name: _digest(workdir / name) for name in pins} == pins


# re-recorded when the SSIM moments became banded tile products: ssim moved by at
# most 3.7e-16 and msssim by 1.2e-16, relative; no other value moved. single.json
# re-recorded when the report gained "msssim_scales": 4 and lost "auc_polarity": "max",
# its only change
METRICS_PINS = {"single.json": "88cc26e2b23716e7", "pairs.csv": "addec8500508b620"}


def test_metrics_outputs_pinned(workdir):
    _amplitude(workdir / "a.sarf", (96, 96), 3)
    _amplitude(workdir / "b.sarf", (96, 96), 4)
    scores = np.random.default_rng(5).standard_normal((96, 96))
    write_raster(ComplexImage(scores), workdir / "fp.sarf")
    mask = np.zeros((96, 96), dtype=np.uint8)
    mask[20:50, 30:70] = 1
    write_raster(TamperMask(mask), workdir / "mask.sarf")

    assert main(["metrics", "--a", "a.sarf", "--b", "b.sarf", "--fingerprint", "fp.sarf",
                 "--mask", "mask.sarf", "--out", "single.json"]) == 0
    (workdir / "pairs_in.csv").write_text(
        "id,a,b,fingerprint,mask\n"
        "p0,a.sarf,b.sarf,,\n"
        "p1,b.sarf,a.sarf,fp.sarf,mask.sarf\n"
    )
    assert main(["metrics", "--pairs", "pairs_in.csv", "--out", "pairs.csv"]) == 0
    assert {name: _digest(workdir / name) for name in METRICS_PINS} == METRICS_PINS


def test_spectrum_csv_pinned(workdir):
    _amplitude(workdir / "a.sarf", (40, 56), 6)
    assert main(["spectrum", "--input", "a.sarf", "--out", "profile.csv"]) == 0
    assert _digest(workdir / "profile.csv") == "6129538b1831744d"


# report.csv and summary.csv re-recorded when the SSIM moments became banded tile
# products: ssim and msssim moved by at most 2.3e-16, relative, and their means in
# the summary by 2.3e-16 and 1.2e-16; every image, mask and provenance byte held
EXPERIMENT_PINS = {
    "errors.json": "2fbc475e427ee3ed",
    "images/t0_gaussian_blur_attacked.sarf": "2f29aa70f53bc581",
    "images/t0_gaussian_blur_mask.sarf": "b407006ff7fdd77d",
    "images/t0_gaussian_blur_provenance.json": "75844e0ea5d2342b",
    "images/t0_gaussian_blur_spliced.sarf": "dd5d2fb7fd370dc5",
    "images/t0_rotate_near_attacked.sarf": "daa27b0351cb6724",
    "images/t0_rotate_near_mask.sarf": "177252491fa05f62",
    "images/t0_rotate_near_provenance.json": "75a255cb5ccb47c6",
    "images/t0_rotate_near_spliced.sarf": "82d3c480ac3ead3b",
    "images/t1_gaussian_blur_attacked.sarf": "8eee45e15f15ec1f",
    "images/t1_gaussian_blur_mask.sarf": "91eacee194243ebb",
    "images/t1_gaussian_blur_provenance.json": "f6e76806a02d3a6b",
    "images/t1_gaussian_blur_spliced.sarf": "57e52f56ecafc610",
    "images/t1_rotate_near_attacked.sarf": "c516561c9ac8e6a0",
    "images/t1_rotate_near_mask.sarf": "1ddfc92b5a02d243",
    "images/t1_rotate_near_provenance.json": "3249493cf885f41b",
    "images/t1_rotate_near_spliced.sarf": "67516e30bb5015fb",
    "report.csv": "6e1470da68d6a0de",
    "summary.csv": "f99e1f45b1f67d9b",
}


def test_experiment_artifacts_pinned(workdir):
    _amplitude(workdir / "t0.sarf", (96, 96), 7)
    _amplitude(workdir / "t1.sarf", (96, 96), 8)
    _amplitude(workdir / "small.sarf", (12, 12), 9)
    scores = np.random.default_rng(10).standard_normal((96, 96))
    write_raster(ComplexImage(scores), workdir / "fp.sarf")
    config = {
        "schema_version": 1,
        "manifest": [
            {"id": "t0", "path": "t0.sarf", "product": "P", "fingerprint": "fp.sarf"},
            {"id": "t1", "path": "t1.sarf", "product": "P"},
            {"id": "small", "path": "small.sarf", "product": "Q"},  # fails: tile < region
        ],
        "edits": [{"kind": "gaussian_blur"}, {"kind": "rotate", "range_class": "near"}],
        "region": [16, 16],
        "attack": {
            "filter": {"estimate": {"strategy": "direct", "sources": "self"}},
            "smoothing": {"sigma": 5.0, "kernel": 31},
        },
        "master_seed": 2024,
        "out_dir": "run",
    }
    (workdir / "config.json").write_text(json.dumps(config))
    assert main(["experiment", "--config", "config.json"]) == 1
    assert _tree_digests(workdir / "run") == EXPERIMENT_PINS


def _complex_siblings(workdir, n=64):
    """Two pristine complex tiles of one synthetic product, seen through a known H."""
    h_true = raised_cosine_filter(n, 0.7)
    for k in range(2):
        write_raster(simulate_pristine(smooth_reflectivity(n, 30 + k), h_true, seed=40 + k),
                     workdir / f"c{k}.sarf")
    write_raster(AmplitudeImage(h_true.values), workdir / "h_true.sarf")


# "default" was re-recorded when the cutoff prescan became one folded scan: its
# start moved in the last digits, H by at most 1.2e-15, the fits' parameters in
# their last digits, and their iterations and stop rules not at all.
ESTIMATE_FILTER_PINS = {
    "default": {"h.sarf": "5941f005853db34a", "h.sarf.json": "0318a1a3f6b2e24b"},
    "explicit": {"h.sarf": "de566ca20b1f3d7d", "h.sarf.json": "f300490ee2c595fc"},
}


@pytest.mark.parametrize("smoothing", list(ESTIMATE_FILTER_PINS))
def test_estimate_filter_outputs_pinned(workdir, smoothing):
    _complex_siblings(workdir)
    if smoothing == "default":
        args = ["--strategy", "raised-cosine", "--sources", "c0.sarf", "c1.sarf"]
    else:
        args = ["--strategy", "gaussian", "--sources", "c0.sarf",
                "--smoothing-sigma", "4.5", "--smoothing-kernel", "27"]
    assert main(["estimate-filter", *args, "--out", "h.sarf"]) == 0
    pins = ESTIMATE_FILTER_PINS[smoothing]
    assert {name: _digest(workdir / name) for name in pins} == pins


ATTACK_PINS = {
    "known": {
        "out.sarf": "8d467ba381deddac",
        "out.sarf.speckled.sarf": "2e06e5cf978a2d51",
        "out.sarf.filtered.sarf": "a9e93cd36a24e94b",
    },
    "estimate": {"out.sarf": "90b3a6b97d3a3543"},
}


@pytest.mark.parametrize("h", list(ATTACK_PINS))
def test_attack_outputs_pinned(workdir, h):
    _complex_siblings(workdir)
    _amplitude(workdir / "in.sarf", (64, 64), 12)
    if h == "known":
        args = ["--filter", "known:h_true.sarf", "--dump-intermediates"]
    else:
        args = ["--filter", "estimate:raised-cosine:c0.sarf,c1.sarf", "--speckle-mode", "full"]
    assert main(["attack", "--input", "in.sarf", "--seed", "13", *args, "--out", "out.sarf"]) == 0
    pins = ATTACK_PINS[h]
    assert {name: _digest(workdir / name) for name in pins} == pins
