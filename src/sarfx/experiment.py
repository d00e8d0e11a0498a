"""Deterministic batch orchestration: splice plans, attacks, metric reports.

An experiment walks a manifest of amplitude tiles grouped by product, creates
one splice per configured edit, optionally attacks it, and scores the result.
All randomness is derived from the master seed through a stable hash keyed by
item id and stage, so report files are byte-identical across runs; rows are
emitted in manifest x edit order regardless of worker completion order. A
shared system response H is loaded or estimated once per run, as the pool's
first task, and each job waits for it; a job's own H is estimated from its
splice and freed before scoring. ``SARFX_THREADS`` caps the worker pool.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from .attack import run_attack
from .forgery import EditOp, random_splice
from .metrics import METRIC_COLUMNS, auc_roc, evaluate_pair, read_fingerprint
from .raster import KIND_AMPLITUDE_F64, RasterHeader, atomic_open, check_kind, read_raster, write_raster
from .speckle import MODE_PHASE_ONLY, SPECKLE_MODES
from .spectral import check_gaussian_kernel
from .sysid import (ESTIMATORS, STRATEGY_DIRECT, TransferFunction, check_amplitude_sources,
                    estimate_transfer_function)
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

    def __post_init__(self):
        """The entry's own checks; the config that holds it reads its rasters' headers."""
        _check_path("a manifest entry's 'path'", self.path)
        if self.fingerprint is not None:
            _check_path("a manifest entry's 'fingerprint'", self.fingerprint)
        if not (isinstance(self.id, str) and self.id not in ("", ".", "..")  # an id names files
                and not any(c in self.id for c in "/\\\0")):
            raise ValueError(f"a manifest entry's 'id' must be a file name without '/', '\\' "
                             f"or NUL, and not '.' or '..', got {self.id!r}")
        if not isinstance(self.product, str):
            raise ValueError(f"a manifest entry's 'product' must be a string, got {self.product!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    manifest: tuple[ManifestItem, ...]
    edits: tuple[EditOp, ...]
    region: tuple[int, int]
    master_seed: int
    out_dir: str
    attack_plan: AttackPlan | None = None

    def __post_init__(self):
        """All content checks, for a loaded, built or replaced config; one header read per raster."""
        if not _is_number(self.master_seed, int):
            raise ValueError(f"master_seed must be an integer, got {self.master_seed!r}")
        _check_path("'out_dir'", self.out_dir)
        if not (isinstance(self.region, (list, tuple)) and len(self.region) == 2
                and all(_is_number(side, int) and side > 0 for side in self.region)):
            raise ValueError(f"region must be two positive integers [height, width], got {self.region!r}")
        for name in ("manifest", "edits", "region"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        ids = [item.id for item in self.manifest]
        if len(set(ids)) != len(ids):
            raise ValueError("manifest ids must be unique")
        headers = []
        for item in self.manifest:
            header = _raster_header("manifest path", item.path, "manifest tile")
            if item.fingerprint:  # scored against masks of the tile's shape
                scores = _raster_header("fingerprint path", item.fingerprint, "fingerprint")
                if (scores.height, scores.width) != (header.height, header.width):
                    raise ValueError(f"fingerprint {item.fingerprint} is {scores.height}x{scores.width}, "
                                     f"its tile {item.path} {header.height}x{header.width}")
            headers.append(header)
        labels = [edit_label(op) for op in self.edits]
        if len(set(labels)) != len(labels):
            # labels key the per-item seed derivation and artifact names
            raise ValueError(f"edit labels must be unique, got {labels}")
        # one tile smaller than the region fails only its own jobs; reject a region none holds
        height, width = self.region
        if headers and not any(height <= h.height and width <= h.width for h in headers):
            raise ValueError(f"region {[height, width]} is larger than every manifest tile; "
                             f"{self.manifest[0].id!r} is {headers[0].height}x{headers[0].width}")
        if self.attack_plan is not None and not isinstance(self.attack_plan, AttackPlan):
            object.__setattr__(self, "attack_plan", AttackPlan.from_json(self.attack_plan))

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """Read a config, checking here only what JSON alone can get wrong: the closed key
        sets, the schema version, the list types and the edit parameters' numbers.
        Construction checks everything else, on every config, ``dataclasses.replace`` too."""
        with open(path) as fh:
            raw = json.load(fh)
        _check_keys("config", raw)
        if not (_is_number(raw["schema_version"], int) and raw["schema_version"] == SCHEMA_VERSION):
            raise ValueError(f"unsupported config schema version {raw['schema_version']!r}")
        raw_edits = raw.get("edits", [{"kind": "none"}])
        for key, value in (("manifest", raw["manifest"]), ("edits", raw_edits)):
            if not isinstance(value, list):
                raise ValueError(f"{key} must be a list of entries, got {value!r}")
        manifest = []
        for entry in raw["manifest"]:
            _check_keys("manifest", entry)
            manifest.append(ManifestItem(entry["id"], entry["path"], entry.get("product", entry["id"]),
                                         entry.get("fingerprint")))
        edits = []
        for e in raw_edits:
            _check_keys("edits", e)
            parameter = e.get("parameter")
            if parameter is not None and not _is_number(parameter):
                raise ValueError(f"an edits entry's parameter must be a number or null, got {parameter!r}")
            edits.append(EditOp(**e))
        return cls(manifest, edits, raw.get("region", [128, 128]), raw["master_seed"], raw["out_dir"],
                   raw.get("attack"))


_CONFIG_KEYS = {
    "config": {"schema_version", "manifest", "edits", "region", "attack", "master_seed", "out_dir"},
    "manifest": {"id", "path", "product", "fingerprint"},
    "edits": {"kind", "parameter", "range_class"},
    "attack": {"filter", "smoothing", "speckle_mode", "histogram_match"},
    "filter": {"known", "estimate"},
    "estimate": {"strategy", "sources"},
    "smoothing": {"sigma", "kernel"},
}
_REQUIRED_KEYS = {
    "config": {"schema_version", "manifest", "master_seed", "out_dir"},
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


def _raster_header(label: str, path, role: str) -> RasterHeader:
    """The header of a raster the config names to fill ``role``; ``label`` names it if the file is missing."""
    if not Path(path).exists():
        raise FileNotFoundError(f"{label} does not exist: {path}")
    return check_kind(path, role)


@dataclass(frozen=True)
class AttackPlan:
    """A checked ``attack`` plan; construction checks every field, ``dataclasses.replace`` too.
    H is a ``known`` raster or a ``strategy`` estimated from ``sources`` ("self": each job's splice)."""
    known: str | None = None
    strategy: str | None = None
    sources: str | tuple[str, ...] | None = None
    speckle_mode: str = MODE_PHASE_ONLY
    histogram_match: bool = True
    smoothing_sigma: float | None = None  # None: set from the tile size when H is estimated
    smoothing_kernel: int | None = None

    def __post_init__(self):
        if self.speckle_mode not in SPECKLE_MODES:
            raise ValueError(f"unknown speckle mode {self.speckle_mode!r} in attack plan; "
                             f"accepted: {list(SPECKLE_MODES)}")
        if not isinstance(self.histogram_match, bool):
            raise ValueError("attack plan 'histogram_match' must be true or false, "
                             f"got {self.histogram_match!r}")
        try:
            check_gaussian_kernel(self.smoothing_sigma, self.smoothing_kernel)
        except ValueError as exc:
            raise ValueError(f"attack plan 'smoothing': {exc}") from None
        if self.strategy is None and self.sources is None:
            _check_path("attack plan 'known'", self.known)
            _raster_header("known filter path", self.known, "known H")
            if (self.smoothing_sigma, self.smoothing_kernel) != (None, None):
                raise ValueError("attack plan 'smoothing' applies only to an estimated H, not a known one")
            return
        if self.known is not None:
            raise ValueError("attack plan filter must carry exactly one of 'known'/'estimate'")
        strategy = str(self.strategy).replace("-", "_")
        if strategy not in ESTIMATORS:
            raise ValueError(f"invalid estimation strategy {self.strategy!r}; accepted: {list(ESTIMATORS)}")
        object.__setattr__(self, "strategy", strategy)
        if self.sources == "self" and strategy != STRATEGY_DIRECT:  # the curve fits need complex sources
            raise ValueError(f"attack plan 'estimate' sources \"self\" are amplitude splices, which only "
                             f"strategy 'direct' takes; got strategy {strategy!r}")
        if self.sources != "self":
            if not (isinstance(self.sources, (list, tuple)) and self.sources
                    and all(isinstance(s, str) and s for s in self.sources)):
                raise ValueError(f"attack plan 'estimate' sources must be \"self\" or a nonempty list "
                                 f"of raster paths, got {self.sources!r}")
            object.__setattr__(self, "sources", tuple(self.sources))
            kinds = [_raster_header("filter source", src, "filter source").kind for src in self.sources]
            check_amplitude_sources(strategy, [kind == KIND_AMPLITUDE_F64 for kind in kinds])

    @classmethod
    def from_json(cls, raw) -> "AttackPlan":
        """Resolve a JSON ``attack`` plan; only its closed key sets and one filter key are checked here."""
        _check_keys("attack", raw)
        smoothing = raw.get("smoothing", {})
        _check_keys("smoothing", smoothing)
        named = raw.get("filter")  # the fields that name H
        _check_keys("filter", named)
        if len(named) != 1:
            raise ValueError("attack plan filter must carry exactly one of 'known'/'estimate'")
        if "estimate" in named:
            _check_keys("estimate", named["estimate"])
            named = {"strategy": STRATEGY_DIRECT, "sources": "self", **named["estimate"]}
        settings = {key: value for key, value in raw.items() if key not in ("filter", "smoothing")}
        return cls(**named, **settings, **{f"smoothing_{key}": value for key, value in smoothing.items()})


@dataclass
class ExperimentResult:
    report_path: str
    summary_path: str
    rows: list[dict]
    errors: dict = field(default_factory=dict)


def load_filter(plan: AttackPlan) -> TransferFunction | None:
    """The H that every attack of a plan shares; None when each job estimates its own from its splice."""
    if plan.known is not None:
        return TransferFunction(read_raster(plan.known).values)
    if plan.sources == "self":
        return None
    return estimate_transfer_function([read_raster(p) for p in plan.sources], plan.strategy,
                                      sigma=plan.smoothing_sigma, kernel_size=plan.smoothing_kernel)


def _run_job(item: ManifestItem, edit: EditOp, config: ExperimentConfig, shared, images_dir):
    plan = config.attack_plan  # the shared H's future raises its load's error in every job
    h = None if plan is None else shared["filter"].result()
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
    if plan is not None:
        if h is None:
            h = estimate_transfer_function([spliced], plan.strategy, sigma=plan.smoothing_sigma,
                                           kernel_size=plan.smoothing_kernel)
        seed = derive_seed(config.master_seed, key, "attack")
        attacked = run_attack(spliced, h, seed, speckle_mode=plan.speckle_mode,
                              match_histogram=plan.histogram_match)
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
    jobs = [(item, edit) for item in config.manifest for edit in config.edits]
    shared = {"products": {}, "index_in_product": {}}
    out_dir = Path(config.out_dir)
    images_dir = out_dir / "images"

    def execute(job):
        try:
            return _run_job(*job, config, shared, images_dir), None
        except Exception as exc:  # per-item failures must not abort the run
            return None, f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=max(1, min(worker_count(), len(jobs)))) as pool:
        # H is built on a worker: on the main thread its freed temporaries stayed resident. The
        # pool starts tasks in submission order, so with any worker count, one included, the load
        # is running or finished before a job waits on it.
        if config.attack_plan is not None:
            shared["filter"] = pool.submit(load_filter, config.attack_plan)
        for item in config.manifest:  # read while H loads, and before out_dir is made
            image = read_raster(item.path)
            tiles = shared["products"].setdefault(item.product, [])
            shared["index_in_product"][item.id] = len(tiles)
            tiles.append(image)
        images_dir.mkdir(parents=True, exist_ok=True)
        outcomes = list(pool.map(execute, jobs))
    errors = {f"{item.id}/{edit_label(edit)}": error
              for (item, edit), (_, error) in zip(jobs, outcomes) if error is not None}

    report_path = out_dir / "report.csv"
    report = [row or {"id": item.id, "edit": edit_label(edit)}
              for (row, _), (item, edit) in zip(outcomes, jobs)]
    with atomic_open(report_path, "w") as fh:
        fh.write(csv_text(REPORT_COLUMNS, report))

    rows = [row for row, _ in outcomes if row is not None]
    summary_path = out_dir / "summary.csv"
    _write_summary(summary_path, rows, config.edits)

    if errors:
        with atomic_open(out_dir / "errors.json", "w") as fh:
            json.dump(errors, fh, indent=2, sort_keys=True)
            fh.write("\n")

    return ExperimentResult(str(report_path), str(summary_path), rows, errors)


def _write_summary(path, rows: list[dict], edits: tuple[EditOp, ...]) -> None:
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
