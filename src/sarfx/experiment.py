"""Deterministic batch orchestration: splice plans, attacks, metric reports.

An experiment walks a manifest of amplitude tiles grouped by product, creates
one splice per configured edit, optionally attacks it, and scores the result.
All randomness is derived from the master seed through a stable hash keyed by
item id and stage, so report files are byte-identical across runs; rows are
emitted in manifest x edit order regardless of worker completion order. A
shared system response H is loaded or estimated once per run, on a pool worker
so its freed temporaries do not stay resident; a job's own H is estimated from
its splice and freed before scoring. ``SARFX_THREADS`` caps the worker pool.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from .attack import run_attack
from .forgery import EditOp, random_splice
from .metrics import METRIC_COLUMNS, auc_roc, evaluate_pair, read_fingerprint
from .raster import (KIND_AMPLITUDE_F64, KIND_MASK_U8, AmplitudeImage, ComplexImage, RasterError,
                     atomic_open, read_header, read_raster, write_raster)
from .speckle import DEFAULT_SIGMA_S, MODE_PHASE_ONLY, SPECKLE_MODES
from .spectral import check_gaussian_kernel
from .sysid import ESTIMATORS, STRATEGY_DIRECT, TransferFunction, estimate_transfer_function
from .tables import csv_text

SCHEMA_VERSION = 1
REPORT_COLUMNS = ("id", "edit") + METRIC_COLUMNS
SUMMARY_COLUMNS = ("edit", "n", "mean_ssim", "mean_msssim", "mean_delta_enl_pct", "mean_auc")


def derive_seed(master_seed: int, item_id: str, stage: str) -> int:
    """Stable 64-bit seed from (master_seed, item id, stage name)."""
    payload = f"{master_seed}:{item_id}:{stage}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def worker_count() -> int:
    """Worker pool size; capped by the SARFX_THREADS environment variable."""
    cap = os.environ.get("SARFX_THREADS")
    if cap:
        try:
            return max(1, int(cap))
        except ValueError:
            raise ValueError(f"SARFX_THREADS must be an integer, got {cap!r}") from None
    return max(1, min(8, os.cpu_count() or 1))


def edit_label(op: EditOp) -> str:
    if op.kind in ("none", "gaussian_blur") or op.range_class == "fixed":
        return op.kind
    return f"{op.kind}_{op.range_class}"


@dataclass(frozen=True)
class ManifestItem:
    id: str
    path: str
    product: str
    fingerprint: str | None = None


@dataclass
class ExperimentConfig:
    manifest: list[ManifestItem]
    edits: list[EditOp]
    region: tuple[int, int]
    master_seed: int
    out_dir: str
    attack_plan: dict | None = None

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        _check_keys("config", raw)
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema version {version!r}")
        raw_edits = raw.get("edits", [{"kind": "none"}])
        for key, value in (("manifest", raw["manifest"]), ("edits", raw_edits)):
            if not isinstance(value, list):
                raise ValueError(f"{key} must be a list of entries, got {value!r}")
        if not _is_number(raw["master_seed"], int):
            raise ValueError(f"master_seed must be an integer, got {raw['master_seed']!r}")
        _check_path("'out_dir'", raw["out_dir"])
        for entry in raw["manifest"]:
            _check_keys("manifest", entry)
            _check_path("a manifest entry's 'path'", entry["path"])
            if entry.get("fingerprint") is not None:
                _check_path("a manifest entry's 'fingerprint'", entry["fingerprint"])
        manifest = [
            ManifestItem(
                id=str(entry["id"]),
                path=entry["path"],
                product=str(entry.get("product", entry["id"])),
                fingerprint=entry.get("fingerprint"),
            )
            for entry in raw["manifest"]
        ]
        ids = [item.id for item in manifest]
        if len(set(ids)) != len(ids):
            raise ValueError("manifest ids must be unique")
        for item in manifest:
            if item.id in ("", ".", "..") or any(c in item.id for c in "/\\\0"):  # an id names files
                raise ValueError(f"a manifest entry's 'id' must be a file name without '/', '\\' "
                                 f"or NUL, and not '.' or '..', got {item.id!r}")
            if not Path(item.path).exists():
                raise FileNotFoundError(f"manifest path does not exist: {item.path}")
            if item.fingerprint and not Path(item.fingerprint).exists():
                raise FileNotFoundError(f"fingerprint path does not exist: {item.fingerprint}")
        for e in raw_edits:
            _check_keys("edits", e)
            parameter = e.get("parameter")
            if parameter is not None and not _is_number(parameter):
                raise ValueError(f"an edits entry's parameter must be a number or null, got {parameter!r}")
        edits = [
            EditOp(
                kind=str(e["kind"]),
                parameter=e.get("parameter"),
                range_class=str(e.get("range_class", "near")),
            )
            for e in raw_edits
        ]
        labels = [edit_label(op) for op in edits]
        if len(set(labels)) != len(labels):
            # labels key the per-item seed derivation and artifact names
            raise ValueError(f"edit labels must be unique, got {labels}")
        region = raw.get("region", [128, 128])
        if not (isinstance(region, list) and len(region) == 2
                and all(_is_number(side, int) and side > 0 for side in region)):
            raise ValueError(f"region must be two positive integers [height, width], got {region!r}")
        # one tile smaller than the region fails only its own jobs; reject a region none holds
        headers = [read_header(item.path) for item in manifest]
        for item, header in zip(manifest, headers):
            if header.kind != KIND_AMPLITUDE_F64:
                raise ValueError(f"manifest item {item.id} is not an amplitude raster: {item.path}")
            if item.fingerprint:  # scored against masks of the tile's shape
                scores = read_header(item.fingerprint)
                if scores.kind == KIND_MASK_U8:
                    raise ValueError(f"{item.fingerprint}: masks cannot serve as fingerprints")
                if (scores.height, scores.width) != (header.height, header.width):
                    raise ValueError(f"fingerprint {item.fingerprint} is {scores.height}x{scores.width}, "
                                     f"its tile {item.path} {header.height}x{header.width}")
        if headers and not any(region[0] <= h.height and region[1] <= h.width for h in headers):
            raise ValueError(f"region {region} is larger than every manifest tile; "
                             f"{manifest[0].id!r} is {headers[0].height}x{headers[0].width}")
        attack_plan = raw.get("attack")
        if attack_plan is not None:
            check_attack_plan(attack_plan)
        return cls(
            manifest=manifest,
            edits=edits,
            region=tuple(region),
            master_seed=raw["master_seed"],
            out_dir=raw["out_dir"],
            attack_plan=attack_plan,
        )


_CONFIG_KEYS = {
    "config": {"schema_version", "manifest", "edits", "region", "attack", "master_seed", "out_dir"},
    "manifest": {"id", "path", "product", "fingerprint"},
    "edits": {"kind", "parameter", "range_class"},
    "attack": {"filter", "smoothing", "speckle_mode", "sigma_s", "histogram_match"},
    "filter": {"known", "estimate"},
    "estimate": {"strategy", "sources"},
    "smoothing": {"sigma", "kernel"},
}
_REQUIRED_KEYS = {
    "config": {"manifest", "master_seed", "out_dir"},
    "manifest": {"id", "path"},
    "edits": {"kind"},
}
_WHERE = {"config": "the config", "manifest": "a manifest entry", "edits": "an edits entry"}


def _check_keys(section: str, value) -> None:
    """``value`` is an object with every required key of ``section`` and no key
    that ``_CONFIG_KEYS`` does not list for it."""
    where = _WHERE.get(section, f"attack plan {section!r}")
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got {value!r}")
    accepted = _CONFIG_KEYS[section]
    for problem, keys in (("unknown", value.keys() - accepted),
                          ("missing", _REQUIRED_KEYS.get(section, set()) - value.keys())):
        if keys:
            raise ValueError(f"{problem} key(s) {sorted(keys)} in {where}; accepted: {sorted(accepted)}")


def _is_number(value, kind=(int, float)) -> bool:
    """A JSON number of ``kind``; JSON's true and false are not numbers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_path(where: str, value) -> None:
    if not (isinstance(value, str) and value):
        raise ValueError(f"{where} must be a nonempty path string, got {value!r}")


def check_attack_plan(plan: dict) -> None:
    """Check an ``attack`` plan, the config's or one ``sarfx attack`` builds from its flags."""
    _check_keys("attack", plan)
    mode = plan.get("speckle_mode", MODE_PHASE_ONLY)
    if mode not in SPECKLE_MODES:
        raise ValueError(
            f"unknown speckle mode {mode!r} in attack plan; accepted: {list(SPECKLE_MODES)}"
        )
    histogram = plan.get("histogram_match", True)
    if not isinstance(histogram, bool):
        raise ValueError(f"attack plan 'histogram_match' must be true or false, got {histogram!r}")
    sigma_s = plan.get("sigma_s", DEFAULT_SIGMA_S)
    if not (_is_number(sigma_s) and 0 < sigma_s <= sys.float_info.max):
        raise ValueError(f"attack plan 'sigma_s' must be a positive number, got {sigma_s!r}")
    smoothing = plan.get("smoothing", {})
    _check_keys("smoothing", smoothing)
    try:
        check_gaussian_kernel(smoothing.get("sigma"), smoothing.get("kernel"))
    except ValueError as exc:
        raise ValueError(f"attack plan 'smoothing': {exc}") from None
    flt = plan.get("filter")
    _check_keys("filter", flt)
    if len(flt) != 1:
        raise ValueError("attack plan filter must carry exactly one of 'known'/'estimate'")
    if "known" in flt:
        _check_path("attack plan 'known'", flt["known"])
        if not Path(flt["known"]).exists():
            raise FileNotFoundError(f"known filter path does not exist: {flt['known']}")
        return
    est = flt["estimate"]
    _check_keys("estimate", est)
    if _strategy(plan) not in ESTIMATORS:
        raise ValueError(f"invalid estimation strategy {est['strategy']!r}; accepted: {list(ESTIMATORS)}")
    sources = est.get("sources", "self")
    if sources != "self":
        if not (isinstance(sources, list) and sources and all(isinstance(s, str) and s for s in sources)):
            raise ValueError(
                f"attack plan 'estimate' sources must be \"self\" or a nonempty list of raster "
                f"paths, got {sources!r}"
            )
        for src in sources:
            if not Path(src).exists():
                raise FileNotFoundError(f"filter source does not exist: {src}")


def _strategy(plan: dict) -> str:
    return str(plan["filter"]["estimate"].get("strategy", STRATEGY_DIRECT)).replace("-", "_")


def _estimate_filter(plan: dict, sources: list) -> TransferFunction:
    smoothing = plan.get("smoothing", {})
    return estimate_transfer_function(
        sources, _strategy(plan), sigma=smoothing.get("sigma"), kernel_size=smoothing.get("kernel")
    )


# attack plan key -> run_attack keyword
_ATTACK_ARGUMENTS = {"speckle_mode": "speckle_mode", "sigma_s": "sigma_s", "histogram_match": "match_histogram"}


def attack_config(plan: dict) -> dict:
    """The keyword arguments of :func:`run_attack` that a checked plan sets; one
    the plan leaves out keeps run_attack's default."""
    return {arg: plan[key] for key, arg in _ATTACK_ARGUMENTS.items() if key in plan}


@dataclass
class ExperimentResult:
    report_path: str
    summary_path: str
    rows: list[dict]
    errors: dict = field(default_factory=dict)


def load_filter(plan: dict) -> TransferFunction | None:
    """The H every attack of a checked plan shares: the known response, or one
    estimate from the shared sources. None when each job estimates its own
    from its splice."""
    flt = plan["filter"]
    if "known" in flt:
        h = read_raster(flt["known"])
        if isinstance(h, ComplexImage):  # a response is real: its imaginary part would be dropped
            raise RasterError(f"{flt['known']}: a known H must be a real raster, not a complex one")
        return TransferFunction(h.values)
    sources = flt["estimate"].get("sources", "self")
    if sources == "self":
        return None
    return _estimate_filter(plan, [read_raster(p) for p in sources])


def _run_job(item: ManifestItem, edit: EditOp, config: ExperimentConfig, shared, images_dir):
    label = edit_label(edit)
    key = f"{item.id}/{label}"
    tiles, target_index = shared["products"][item.product], shared["index_in_product"][item.id]
    original = tiles[target_index]

    spliced, mask, provenance = random_splice(
        tiles,
        region=config.region,
        edit=edit,
        seed=derive_seed(config.master_seed, key, "splice"),
        target_index=target_index,
    )

    attacked = None
    if config.attack_plan is not None:
        h = shared["filter"]
        if h is None:
            h = _estimate_filter(config.attack_plan, [spliced])
        seed = derive_seed(config.master_seed, key, "attack")
        attacked = run_attack(spliced, h, seed, **attack_config(config.attack_plan))
        del h  # a self-estimated H is a plane that scoring does not need

    # Scored at read, before any artifact is written (a bad one leaves none) or SSIM runs.
    auc = auc_roc(read_fingerprint(item.fingerprint), mask) if item.fingerprint else None

    write_raster(spliced, images_dir / f"{item.id}_{label}_spliced.sarf")
    write_raster(mask, images_dir / f"{item.id}_{label}_mask.sarf")
    if attacked is not None:
        write_raster(attacked, images_dir / f"{item.id}_{label}_attacked.sarf")
    with atomic_open(images_dir / f"{item.id}_{label}_provenance.json", "w") as fh:
        json.dump(provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # Quality metrics compare the attack output to its input when an attack
    # ran, otherwise the spliced tile to the untouched target.
    pair = (attacked, spliced) if attacked is not None else (spliced, original)
    report = replace(evaluate_pair(*pair), auc=auc)
    return {"id": item.id, "edit": label, **report.columns()}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the configured experiment and write report/summary CSVs."""
    workers = worker_count()
    products: dict[str, list[AmplitudeImage]] = {}
    index_in_product: dict[str, int] = {}
    for item in config.manifest:
        image = read_raster(item.path)
        if not isinstance(image, AmplitudeImage):
            raise ValueError(f"manifest item {item.id} is not an amplitude raster: {item.path}")
        index_in_product[item.id] = len(products.setdefault(item.product, []))
        products[item.product].append(image)

    out_dir = Path(config.out_dir)
    images_dir = out_dir / "images"
    images_dir.mkdir(parents=True, exist_ok=True)

    shared = {"products": products, "index_in_product": index_in_product}
    jobs = [(item, edit) for item in config.manifest for edit in config.edits]

    def failure(exc: Exception) -> tuple[None, str]:
        return None, f"{type(exc).__name__}: {exc}"

    def execute(job):
        try:
            return _run_job(*job, config, shared, images_dir), None
        except Exception as exc:  # per-item failures must not abort the run
            return failure(exc)

    outcomes = []
    with ThreadPoolExecutor(max_workers=max(1, min(workers, len(jobs)))) as pool:
        if config.attack_plan is not None:
            try:  # on a worker: built on the main thread, its freed temporaries stayed resident
                shared["filter"] = pool.submit(load_filter, config.attack_plan).result()
            except Exception as exc:  # without the shared H every job fails alike
                outcomes = [failure(exc)] * len(jobs)
        if not outcomes:
            outcomes = list(pool.map(execute, jobs))
    rows = [row for row, _ in outcomes]
    errors = {
        f"{item.id}/{edit_label(edit)}": error
        for (item, edit), (_, error) in zip(jobs, outcomes)
        if error is not None
    }

    report_path = out_dir / "report.csv"
    report = [
        row or {"id": item.id, "edit": edit_label(edit)} for row, (item, edit) in zip(rows, jobs)
    ]
    with atomic_open(report_path, "w") as fh:
        fh.write(csv_text(REPORT_COLUMNS, report))

    summary_path = out_dir / "summary.csv"
    _write_summary(summary_path, [r for r in rows if r is not None], config.edits)

    if errors:
        with atomic_open(out_dir / "errors.json", "w") as fh:
            json.dump(errors, fh, indent=2, sort_keys=True)
            fh.write("\n")

    return ExperimentResult(str(report_path), str(summary_path), [r for r in rows if r], errors)


def _write_summary(path, rows: list[dict], edits: list[EditOp]) -> None:
    """Per-edit aggregate means, one row per configured editing operation."""
    table = []
    for edit in edits:
        label = edit_label(edit)
        group = [r for r in rows if r["edit"] == label]
        summary = {"edit": label, "n": len(group)}
        if group:
            for key in ("ssim", "msssim", "delta_enl_pct"):
                summary[f"mean_{key}"] = sum(r[key] for r in group) / len(group)
            aucs = [r["auc"] for r in group if r["auc"] is not None]
            if aucs:
                summary["mean_auc"] = sum(aucs) / len(aucs)
        table.append(summary)
    with atomic_open(path, "w") as fh:
        fh.write(csv_text(SUMMARY_COLUMNS, table))
