"""Command-line surface tying the modules into reproducible runs.

Subcommands: forge, attack, estimate-filter, metrics, spectrum, tile,
experiment. All randomness flows from explicit seeds; outputs are
deterministic given identical inputs and flags.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .attack import run_attack
from .experiment import AttackPlan, ExperimentConfig, load_filter, run_experiment
from .forgery import (
    EDIT_KINDS,
    RANGE_CLASSES,
    EditOp,
    place_splice,
)
from .metrics import METRIC_COLUMNS, auc_roc, evaluate_pair, read_fingerprint
from .raster import (
    AmplitudeImage,
    ComplexImage,
    RasterError,
    atomic_open,
    check_kind,
    read_raster,
    write_mask_pgm,
    write_raster,
)
from .spectral import azimuthal_profile, check_gaussian_kernel, forward_dft, profile_to_csv
from .speckle import SPECKLE_MODES, generate_speckle, inject_speckle, rng
from .sysid import ESTIMATORS, FitNonConvergenceError
from .raster import tile as tile_raster
from .tables import csv_text, json_text

_REGION_RE = re.compile(r"^(\d+)x(\d+)(?:\+(\d+)\+(\d+))?$")


class CliError(Exception):
    """User-facing command failure (bad inputs, unreadable files)."""


def parse_region(text: str):
    """Parse WxH[+x+y] into (height, width, col, row); offsets may be None."""
    match = _REGION_RE.match(text)
    if not match:
        raise CliError(f"bad region syntax {text!r}; expected WxH or WxH+x+y")
    w, h = int(match.group(1)), int(match.group(2))
    if w < 1 or h < 1:
        raise CliError(f"--region sides must be positive, got {text!r}")
    col, row = (None if offset is None else int(offset) for offset in match.group(3, 4))
    return h, w, col, row


def parse_filter_spec(text: str):
    """Parse ``known:<path>`` or ``estimate:<strategy>:<p1,p2,...>`` into the
    ``filter`` of an experiment config's attack plan."""
    kind, _, rest = text.partition(":")
    if kind == "known":
        if not rest:
            raise CliError("known filter needs a path: known:<path>")
        return {"known": rest}
    if kind == "estimate":
        strategy, _, paths = rest.partition(":")
        sources = [p for p in paths.split(",") if p]
        if not strategy or not sources:
            raise CliError("estimate filter needs estimate:<strategy>:<path,path,...>")
        return {"estimate": {"strategy": strategy, "sources": sources}}
    raise CliError(f"unknown filter spec {text!r}; use known:<path> or estimate:...")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarfx",
        description="SAR amplitude counter-forensics: forgery, re-acquisition attack, metrics",
    )
    parser.add_argument("--version", action="version", version=f"sarfx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tile = sub.add_parser("tile", help="cut a raster into overlapping tiles")
    p_tile.add_argument("--input", required=True)
    p_tile.add_argument("--size", type=int, required=True)
    p_tile.add_argument("--overlap", type=int, default=0)
    p_tile.add_argument("--out-dir", required=True)

    p_spec = sub.add_parser("spectrum", help="emit the radial spectrum profile as CSV")
    p_spec.add_argument("--input", required=True)
    p_spec.add_argument("--out", default="-")

    p_est = sub.add_parser("estimate-filter", help="estimate the system frequency response")
    p_est.add_argument("--strategy", required=True, choices=[s.replace("_", "-") for s in ESTIMATORS])
    p_est.add_argument("--sources", nargs="+", required=True)
    p_est.add_argument("--out", required=True)
    p_est.add_argument("--smoothing-sigma", type=float, default=None)
    p_est.add_argument("--smoothing-kernel", type=int, default=None)

    p_forge = sub.add_parser("forge", help="create a spliced image and its mask")
    p_forge.add_argument("--target", required=True)
    p_forge.add_argument("--donor", required=True)
    p_forge.add_argument("--edit", default="none", choices=list(EDIT_KINDS))
    p_forge.add_argument("--edit-class", default="near", choices=list(RANGE_CLASSES))
    p_forge.add_argument("--edit-parameter", type=float, default=None)
    p_forge.add_argument("--region", default="128x128")
    p_forge.add_argument("--seed", type=int, default=0)
    p_forge.add_argument("--out-image", required=True)
    p_forge.add_argument("--out-mask", required=True)
    p_forge.add_argument("--out-mask-pgm", default=None)
    p_forge.add_argument("--out-provenance", default=None)

    p_attack = sub.add_parser("attack", help="run the counter-forensic attack")
    p_attack.add_argument("--input", required=True)
    p_attack.add_argument(
        "--filter", required=True, help="known:<path> or estimate:<strategy>:<paths,...>"
    )
    p_attack.add_argument("--speckle-mode", default="phase-only",
                          choices=[m.replace("_", "-") for m in SPECKLE_MODES])
    p_attack.add_argument("--seed", type=int, required=True)
    p_attack.add_argument("--no-histogram-match", action="store_true")
    p_attack.add_argument("--smoothing-sigma", type=float, default=None)
    p_attack.add_argument("--smoothing-kernel", type=int, default=None)
    p_attack.add_argument("--dump-intermediates", action="store_true")
    p_attack.add_argument("--out", required=True)

    p_metrics = sub.add_parser("metrics", help="score image pairs (JSON or batch CSV)")
    p_metrics.add_argument("--a")
    p_metrics.add_argument("--b")
    p_metrics.add_argument("--fingerprint", default=None)
    p_metrics.add_argument("--mask", default=None)
    p_metrics.add_argument("--pairs", default=None, help="batch manifest CSV: id,a,b[,fingerprint,mask]")
    p_metrics.add_argument("--out", default="-")

    p_exp = sub.add_parser("experiment", help="run a full experiment from a JSON config")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--seed", type=int, default=None, help="override the config master seed")
    p_exp.add_argument("--out-dir", default=None)

    return parser


def parse_args(argv) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "attack":
        try:
            args.filter_spec = parse_filter_spec(args.filter)
        except CliError as exc:
            parser.error(str(exc))
    if args.command == "metrics" and args.pairs is None and (args.a is None or args.b is None):
        parser.error("metrics needs --a/--b for a single pair or --pairs for batch mode")
    return args


def _read(path, role: str):
    check_kind(path, role)
    return read_raster(path)


def _read_amplitude(path) -> AmplitudeImage:
    image = _read(path, "image")
    return image.amplitude() if isinstance(image, ComplexImage) else image


def _plan(args, **fields) -> AttackPlan:
    """The attack plan of ``fields`` and the smoothing flags, each checked under its own name."""
    for flag, sigma, size in (("--smoothing-sigma", args.smoothing_sigma, None),
                              ("--smoothing-kernel", None, args.smoothing_kernel)):
        try:
            check_gaussian_kernel(sigma, size)
        except ValueError as exc:
            raise CliError(f"{flag}: {exc}") from None
    return AttackPlan(**fields, smoothing_sigma=args.smoothing_sigma, smoothing_kernel=args.smoothing_kernel)


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with atomic_open(out, "w") as fh:
            fh.write(text)


def cmd_tile(args) -> int:
    if args.size < 1:
        raise CliError(f"--size must be a positive integer, got {args.size}")
    image = read_raster(args.input)
    tiles = tile_raster(image, args.size, args.overlap)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for piece, row, col in tiles:
        write_raster(piece, out_dir / f"tile_r{row:06d}_c{col:06d}.sarf")
    print(f"wrote {len(tiles)} tiles to {out_dir}")
    return 0


def cmd_spectrum(args) -> int:
    profile = azimuthal_profile(forward_dft(_read(args.input, "image")))
    _emit(profile_to_csv(profile), args.out)
    return 0


def cmd_estimate_filter(args) -> int:
    h = load_filter(_plan(args, strategy=args.strategy, sources=args.sources))
    write_raster(AmplitudeImage(h.values, 16), args.out)
    sidecar = {
        "strategy": h.strategy,
        "sources": list(args.sources),
        "smoothing_kernel": h.smoothing[0],
        "smoothing_sigma": h.smoothing[1],
        "fit_params": [None if p is None else p.__dict__ for p in h.fit_params],
    }
    _emit(json_text(sidecar), str(args.out) + ".json")
    print(f"wrote {args.out} (+ JSON sidecar)")
    return 0


def cmd_forge(args) -> int:
    target = _read_amplitude(args.target)
    donor = _read_amplitude(args.donor)
    height, width, col, row = parse_region(args.region)
    op = EditOp(args.edit, parameter=args.edit_parameter, range_class=args.edit_class)
    spliced, mask, record = place_splice(
        rng(args.seed), target, donor, (height, width), op, args.seed,
        target_origin=None if row is None else (row, col),
    )
    write_raster(spliced, args.out_image)
    write_raster(mask, args.out_mask)
    if args.out_mask_pgm:
        write_mask_pgm(mask, args.out_mask_pgm)
    provenance = {
        "target": str(args.target),
        "donor": str(args.donor),
        **record,
        "seed": args.seed,
    }
    _emit(json_text(provenance), args.out_provenance or "-")
    return 0


def cmd_attack(args) -> int:
    plan = _plan(args, **args.filter_spec.get("estimate", args.filter_spec),  # known, or strategy and sources
                 speckle_mode=args.speckle_mode.replace("-", "_"), histogram_match=not args.no_histogram_match)
    rng(args.seed)  # range-checks the seed before H is loaded
    image = _read_amplitude(args.input)
    h, mode = load_filter(plan), plan.speckle_mode
    write_raster(run_attack(image, h, args.seed, speckle_mode=mode, match_histogram=plan.histogram_match),
                 args.out)
    if args.dump_intermediates:  # the same seed redraws the intermediates the attack dropped
        field = generate_speckle(*image.shape, mode, seed=args.seed)
        speckled = ComplexImage(inject_speckle(image, field), copy=False)
        write_raster(speckled, f"{args.out}.speckled.sarf")
        write_raster(run_attack(image, h, args.seed, speckle_mode=mode, match_histogram=False),
                     f"{args.out}.filtered.sarf")
    print(f"wrote {args.out}")
    return 0


def _score(a_path, b_path, fingerprint_path, mask_path, where=""):
    if bool(fingerprint_path) != bool(mask_path):
        raise CliError(f"{where}AUC needs both a fingerprint and a mask")
    a, b = _read_amplitude(a_path), _read_amplitude(b_path)
    auc = auc_roc(read_fingerprint(fingerprint_path), _read(mask_path, "mask")) if mask_path else None
    return replace(evaluate_pair(a, b), auc=auc)


def cmd_metrics(args) -> int:
    if args.pairs is None:
        report = _score(args.a, args.b, args.fingerprint, args.mask)
        _emit(json_text(report.to_dict()), args.out)
        return 0

    with open(args.pairs) as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ("id", "a", "b") if c not in (reader.fieldnames or ())]
        if missing:
            raise CliError(f"{args.pairs}: missing column(s) {','.join(missing)}; "
                           "a pairs CSV needs the columns id,a,b")
        rows = []
        for record in reader:  # a short row leaves None, an empty cell ""
            where = f"{args.pairs}:{reader.line_num}: "
            for column in ("id", "a", "b"):
                if not record[column]:
                    raise CliError(f"{where}no value for column {column}")
            report = _score(record["a"], record["b"], record.get("fingerprint") or None,
                            record.get("mask") or None, where)
            rows.append({"id": record["id"], **report.columns()})
    _emit(csv_text(("id",) + METRIC_COLUMNS, rows), args.out)
    return 0


def cmd_experiment(args) -> int:
    overrides = {k: v for k, v in (("master_seed", args.seed), ("out_dir", args.out_dir)) if v is not None}
    result = run_experiment(replace(ExperimentConfig.from_json(args.config), **overrides))  # rechecks all
    print(f"report: {result.report_path}")
    print(f"summary: {result.summary_path}")
    if result.errors:
        print(f"{len(result.errors)} item(s) failed; see errors.json", file=sys.stderr)
        return 1
    return 0


_HANDLERS = {
    "tile": cmd_tile,
    "spectrum": cmd_spectrum,
    "estimate-filter": cmd_estimate_filter,
    "forge": cmd_forge,
    "attack": cmd_attack,
    "metrics": cmd_metrics,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    try:
        return _HANDLERS[args.command](args)
    except (CliError, RasterError, ValueError, KeyError, OSError, FitNonConvergenceError) as exc:
        print(f"sarfx: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
