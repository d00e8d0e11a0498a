"""Correctness checks on an experiment's outputs, and the detector score.

Every job is checked two ways. Its report row is compared with the stored
reference row for the seed, when one exists, at ``TOLERANCE``. Its artifacts
are checked against invariants that hold for any seed, computed with numpy
alone: the mask covers exactly the region, the spliced tile equals the
original outside the mask, histogram matching made the attacked tile's sorted
values equal the spliced tile's, and the report's ENL and AUC columns agree
with values recomputed from the artifacts.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from workloads import read_sarf, texture_fingerprint

# Bound on |value - reference| / max(|reference|, 1) for every numeric column.
# Scaling by max(|ref|, 1) keeps delta_enl_pct, which is round-off around 0
# because histogram matching preserves the value set, from dividing by ~0.
TOLERANCE = 1e-6
NUMERIC = ("ssim", "msssim", "enl_a", "enl_b", "delta_enl_pct", "auc")


def row_key(row: dict) -> str:
    return f"{row['id']}/{row['edit']}"


def deviation(a, b) -> float:
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    return abs(a - b) / max(abs(b), 1.0)


def compare_rows(rows: list[dict], ref_rows: list[dict]) -> tuple[float, set[str]]:
    """Largest deviation from the reference, and the jobs beyond tolerance."""
    ref = {row_key(r): r for r in ref_rows}
    worst, bad = 0.0, set()
    for row in rows:
        key = row_key(row)
        dev = max(deviation(row[c], ref[key][c]) for c in NUMERIC) if key in ref else math.inf
        worst = max(worst, dev)
        if dev > TOLERANCE:
            bad.add(key)
    return worst, bad


def auc(scores: np.ndarray, mask: np.ndarray) -> float:
    """Mann-Whitney AUC with average ranks, in the orientation that maximises it."""
    labels = mask.ravel().astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    rank_sum = float(rankdata(scores.ravel())[labels].sum())
    value = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return max(value, 1.0 - value)


def enl(values: np.ndarray) -> float:
    mean = values.mean()
    return float(mean * mean / values.var())


def check_job(images: Path, in_dir: Path, row: dict, region_px: int) -> tuple[list[str], float]:
    """Invariant violations for one job, and the detector's AUC on its attacked tile."""
    stem = images / f"{row['id']}_{row['edit']}"
    original = read_sarf(in_dir / f"{row['id']}.sarf")
    spliced = read_sarf(f"{stem}_spliced.sarf")
    mask = read_sarf(f"{stem}_mask.sarf")
    attacked = read_sarf(f"{stem}_attacked.sarf")
    problems = []
    if int(mask.sum()) != region_px or mask.max() > 1:
        problems.append(f"mask covers {int(mask.sum())} px, expected {region_px}")
    outside = mask == 0
    if not np.array_equal(spliced[outside], original[outside]):
        problems.append("spliced tile differs from the original outside the mask")
    if not np.array_equal(np.sort(attacked, axis=None), np.sort(spliced, axis=None)):
        problems.append("attacked tile's value set differs from the spliced tile's")
    expected = {"enl_a": enl(attacked), "enl_b": enl(spliced)}
    expected["delta_enl_pct"] = abs(row["enl_a"] - row["enl_b"]) / row["enl_b"] * 100.0
    fingerprint = in_dir / f"{row['id']}_fp.sarf"
    if fingerprint.exists():
        expected["auc"] = auc(read_sarf(fingerprint), mask)
    for col, value in expected.items():
        if deviation(row[col], value) > TOLERANCE:
            problems.append(f"{col} {row[col]!r} disagrees with recomputed {value!r}")
    for col in ("ssim", "msssim"):
        if not 0.0 < row[col] <= 1.0:
            problems.append(f"{col} {row[col]!r} outside (0, 1]")
    return problems, auc(texture_fingerprint(attacked), mask)


def artifact_hashes(out_dir: Path) -> dict[str, str]:
    files = sorted(out_dir.glob("*.csv")) + sorted((out_dir / "images").iterdir())
    return {
        p.relative_to(out_dir).as_posix(): hashlib.blake2b(p.read_bytes(), digest_size=8).hexdigest()
        for p in files
    }


def group_digests(digests) -> dict[str, list[str]]:
    """(job, span name) -> digests in call order; the order within one job is fixed."""
    grouped: dict[str, list[str]] = {}
    for job, name, digest in digests:
        grouped.setdefault(f"{job}|{name}", []).append(digest)
    return grouped
