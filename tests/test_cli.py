import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from helpers import fail_raster_module_writes

from sarfx import (
    AmplitudeImage,
    ComplexImage,
    RasterError,
    TamperMask,
    apply_system,
    estimate_transfer_function,
    histogram_match,
    raised_cosine_filter,
    read_raster,
    simulate_pristine,
    smooth_reflectivity,
    write_raster,
)
from sarfx import cli, experiment, sysid
from sarfx.cli import main, parse_args, parse_filter_spec, parse_region, CliError
from sarfx.experiment import ExperimentConfig, derive_seed, edit_label, worker_count
from sarfx.forgery import EditOp, place_splice
from sarfx.leastsq import FitDivergenceError
from sarfx.speckle import rng


def test_cli_import_does_not_load_scipy_signal():
    # scipy.signal, with the scipy.stats it imports, would add about a second
    # to every start of the command line
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, sarfx.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))"
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_import_loads_no_scipy():
    # numpy is the package's only runtime dependency; scipy is the tests' oracle
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, sarfx, sarfx.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def test_tile_args_resolve_stride():
    args = parse_args(["tile", "--input", "a.sarf", "--size", "1024",
                       "--overlap", "512", "--out-dir", "out"])
    assert args.command == "tile"
    assert args.size - args.overlap == 512


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        parse_args(["attack", "--input", "a.sarf", "--seed", "1"])  # no --filter/--out
    assert err.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        parse_args(["spectrum", "--input", "a.sarf", "--wibble", "3"])
    assert err.value.code == 2


def test_filter_spec_round_trip():
    args = parse_args([
        "attack", "--input", "x.sarf", "--seed", "7",
        "--filter", "estimate:direct:a.sarf,b.sarf", "--out", "y.sarf",
    ])
    # the flag parses into the filter of an experiment config's attack plan
    assert args.filter_spec == {"estimate": {"strategy": "direct", "sources": ["a.sarf", "b.sarf"]}}
    known = parse_filter_spec("known:h.sarf")
    assert known == {"known": "h.sarf"}
    assert parse_filter_spec("estimate:raised-cosine:s.sarf")["estimate"]["strategy"] == "raised-cosine"


def test_malformed_filter_spec_exits_2():
    with pytest.raises(SystemExit) as err:
        parse_args(["attack", "--input", "x.sarf", "--seed", "1",
                    "--filter", "telepathy:h.sarf", "--out", "y.sarf"])
    assert err.value.code == 2
    with pytest.raises(CliError):
        parse_filter_spec("known:")
    with pytest.raises(CliError):
        parse_filter_spec("estimate:direct:")


def test_region_parsing():
    assert parse_region("128x128") == (128, 128, None, None)
    assert parse_region("64x32+10+20") == (32, 64, 10, 20)
    with pytest.raises(CliError, match="syntax"):
        parse_region("128by128")
    for text in ("16x0", "0x16", "0x0+1+1"):
        with pytest.raises(CliError, match="^--region sides must be positive"):
            parse_region(text)


def test_metrics_requires_pair_or_batch():
    with pytest.raises(SystemExit) as err:
        parse_args(["metrics", "--a", "only-one.sarf"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# Command round trips on synthetic data
# ---------------------------------------------------------------------------


@pytest.fixture()
def product(tmp_path):
    """Two pristine synthetic tiles plus the complex original of tile 0."""
    h_true = raised_cosine_filter(128, 0.7)
    paths = {}
    for k in range(2):
        pristine_c = simulate_pristine(smooth_reflectivity(128, 50 + k), h_true, seed=900 + k)
        cpath = tmp_path / f"tile{k}_complex.sarf"
        apath = tmp_path / f"tile{k}.sarf"
        write_raster(pristine_c, cpath)
        write_raster(pristine_c.amplitude(), apath)
        paths[f"complex{k}"] = cpath
        paths[f"amp{k}"] = apath
    return paths


def test_cli_tile_and_spectrum(tmp_path, product, capsys):
    out_dir = tmp_path / "tiles"
    rc = main(["tile", "--input", str(product["amp0"]), "--size", "64",
               "--overlap", "32", "--out-dir", str(out_dir)])
    assert rc == 0
    assert len(list(out_dir.glob("*.sarf"))) == 9

    csv_path = tmp_path / "profile.csv"
    rc = main(["spectrum", "--input", str(product["amp0"]), "--out", str(csv_path)])
    assert rc == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "radius,mean_sq_magnitude,count"
    assert len(lines) > 64


def test_cli_estimate_filter_and_attack(tmp_path, product):
    h_path = tmp_path / "h.sarf"
    rc = main([
        "estimate-filter", "--strategy", "direct",
        "--sources", str(product["complex0"]), str(product["complex1"]),
        "--out", str(h_path),
        "--smoothing-sigma", "5.0", "--smoothing-kernel", "31",
    ])
    assert rc == 0
    sidecar = json.loads((tmp_path / "h.sarf.json").read_text())
    assert sidecar["strategy"] == "direct"
    assert len(sidecar["fit_params"]) == 2
    stored = read_raster(h_path)
    assert stored.values.max() == 1.0

    out_path = tmp_path / "attacked.sarf"
    rc = main([
        "attack", "--input", str(product["amp0"]),
        "--filter", f"known:{h_path}",
        "--seed", "123", "--out", str(out_path), "--dump-intermediates",
    ])
    assert rc == 0
    attacked = read_raster(out_path)
    original = read_raster(product["amp0"])
    assert np.array_equal(
        np.sort(attacked.values, axis=None), np.sort(original.values, axis=None)
    )
    speckled = read_raster(tmp_path / "attacked.sarf.speckled.sarf")
    filtered = read_raster(tmp_path / "attacked.sarf.filtered.sarf")
    # the intermediates, redrawn under the same seed, are the attack's own
    assert np.array_equal(histogram_match(filtered, original).values, attacked.values)
    assert np.array_equal(apply_system(speckled, stored.values).amplitude().values, filtered.values)

    # estimation path straight through the attack command
    rc = main([
        "attack", "--input", str(product["amp0"]),
        "--filter", f"estimate:direct:{product['complex1']}",
        "--smoothing-sigma", "5.0", "--smoothing-kernel", "31",
        "--seed", "124", "--out", str(tmp_path / "attacked2.sarf"),
    ])
    assert rc == 0


def test_cli_forge_and_metrics(tmp_path, product, capsys):
    image_path = tmp_path / "spliced.sarf"
    mask_path = tmp_path / "mask.sarf"
    rc = main([
        "forge", "--target", str(product["amp0"]), "--donor", str(product["amp1"]),
        "--edit", "gaussian_blur", "--region", "32x32+10+20", "--seed", "5",
        "--out-image", str(image_path), "--out-mask", str(mask_path),
        "--out-mask-pgm", str(tmp_path / "mask.pgm"),
    ])
    assert rc == 0
    provenance = json.loads(capsys.readouterr().out)
    assert provenance["target_origin"] == [20, 10]
    mask = read_raster(mask_path)
    assert isinstance(mask, TamperMask)
    assert int(mask.values.sum()) == 32 * 32

    report_path = tmp_path / "report.json"
    rc = main(["metrics", "--a", str(image_path), "--b", str(product["amp0"]),
               "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert 0.9 < report["ssim"] <= 1.0

    # batch mode
    manifest = tmp_path / "pairs.csv"
    manifest.write_text(
        "id,a,b,fingerprint,mask\n"
        f"p0,{image_path},{product['amp0']},,\n"
        f"p1,{image_path},{product['amp0']},{image_path},{mask_path}\n"
    )
    batch_path = tmp_path / "batch.csv"
    rc = main(["metrics", "--pairs", str(manifest), "--out", str(batch_path)])
    assert rc == 0
    lines = batch_path.read_text().strip().split("\n")
    assert lines[0] == "id,ssim,msssim,enl_a,enl_b,delta_enl_pct,auc"
    assert len(lines) == 3
    assert lines[1].split(",")[-1] == ""  # no fingerprint -> empty auc
    assert lines[2].split(",")[-1] != ""


def test_cli_metrics_signed_fingerprint(tmp_path, product):
    # signed detector scores travel as the real plane of a complex raster
    rng = np.random.default_rng(42)
    scores = rng.standard_normal((128, 128))
    from sarfx import ComplexImage

    fp_path = tmp_path / "fp.sarf"
    write_raster(ComplexImage(scores), fp_path)
    mask_plane = np.zeros((128, 128), dtype=np.uint8)
    mask_plane[10:40, 10:40] = 1
    mask_path = tmp_path / "m.sarf"
    write_raster(TamperMask(mask_plane), mask_path)

    out = tmp_path / "signed.json"
    rc = main(["metrics", "--a", str(product["amp0"]), "--b", str(product["amp1"]),
               "--fingerprint", str(fp_path), "--mask", str(mask_path), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert 0.4 < report["auc"] < 0.6  # noise scores -> chance-level AUC


def test_cli_error_paths(tmp_path):
    rc = main(["spectrum", "--input", str(tmp_path / "missing.sarf")])
    assert rc == 1
    bad = tmp_path / "bad.sarf"
    bad.write_bytes(b"junkjunkjunk")
    rc = main(["spectrum", "--input", str(bad)])
    assert rc == 1


def test_cli_spectrum_rejects_a_mask(tmp_path, capsys):
    path = tmp_path / "mask.sarf"
    write_raster(TamperMask(np.eye(16, dtype=np.uint8)), path)
    assert main(["spectrum", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"sarfx: error: {path}: a mask raster has no spectrum\n"
    assert captured.out == ""


@pytest.mark.parametrize("header, missing", [
    ("id,a", "b"), ("a,b,fingerprint,mask", "id"), ("pair,left,right", "id,a,b"), ("", "id,a,b"),
])
def test_cli_pairs_csv_missing_columns(tmp_path, product, capsys, header, missing):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"{header}\np0,{product['amp0']}\n" if header else "")
    assert main(["metrics", "--pairs", str(pairs)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"sarfx: error: {pairs}: missing column(s) {missing}; "
                            "a pairs CSV needs the columns id,a,b\n")
    assert captured.out == ""


@pytest.mark.parametrize("row, column", [
    ("p1,{a}", "b"), ("p1,,{a}", "a"), ("p1,{a},", "b"), (",{a},{a}", "id"),
])
def test_cli_pairs_csv_row_without_a_value(tmp_path, product, capsys, row, column):
    # a row shorter than the header, or with an empty cell, names the CSV line
    # and the column; the good row before it does not hide it
    pairs = tmp_path / "pairs.csv"
    a = product["amp0"]
    pairs.write_text(f"id,a,b\np0,{a},{a}\n{row.format(a=a)}\n")
    assert main(["metrics", "--pairs", str(pairs)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"sarfx: error: {pairs}:3: no value for column {column}\n"
    assert captured.out == ""


@pytest.mark.parametrize("region", ["16x0", "0x16", "0x0+2+2"])
def test_forge_rejects_an_empty_region(tmp_path, product, capsys, region):
    out = tmp_path / "out.sarf"
    argv = ["forge", "--target", str(product["amp0"]), "--donor", str(product["amp1"]),
            "--region", region, "--out-image", str(out), "--out-mask", str(tmp_path / "m.sarf")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"sarfx: error: --region sides must be positive, got {region!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--edit", "upscale", "--edit-class", "fixed", "--edit-parameter", "inf"],
     "edit parameter must be finite, got inf"),
    (["--edit", "rotate", "--edit-class", "fixed", "--edit-parameter", "nan"],
     "edit parameter must be finite, got nan"),
    (["--edit", "gaussian_blur", "--edit-parameter", "-1"],
     "gaussian_blur sigma must be nonnegative, got -1.0"),
    (["--edit", "downscale", "--edit-class", "fixed", "--edit-parameter", "0"],
     "downscale factor must be positive, got 0.0"),
], ids=["inf-upscale", "nan-rotate", "negative-blur", "zero-downscale"])
def test_forge_rejects_a_bad_edit_parameter(tmp_path, product, capsys, flags, message):
    out = tmp_path / "out"
    out.mkdir()
    argv = _forge_argv(product, out, "--out-provenance", str(out / "provenance.json"),
                       "--out-mask-pgm", str(out / "mask.pgm"), *flags)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"sarfx: error: {message}\n"
    assert list(out.iterdir()) == []


_FORGE_EDITS = {
    "none": (["--edit", "none"], EditOp("none")),
    "blur": (["--edit", "gaussian_blur"], EditOp("gaussian_blur")),
    "upscale-far": (["--edit", "upscale", "--edit-class", "far"], EditOp("upscale", range_class="far")),
    "downscale-near": (["--edit", "downscale"], EditOp("downscale")),
    "rotate-fixed": (["--edit", "rotate", "--edit-class", "fixed", "--edit-parameter", "30"],
                     EditOp("rotate", 30.0, "fixed")),
}


@pytest.mark.parametrize("region", ["24x20", "24x20+7+3"], ids=["drawn", "placed"])
@pytest.mark.parametrize("edit", sorted(_FORGE_EDITS))
def test_forge_pastes_through_place_splice(tmp_path, product, edit, region):
    # sarfx forge is file I/O around place_splice(rng(seed), ..., edit_seed=seed)
    flags, op = _FORGE_EDITS[edit]
    out, ref = tmp_path / "out", tmp_path / "ref"
    out.mkdir()
    ref.mkdir()
    assert main(["forge", "--target", str(product["amp0"]), "--donor", str(product["amp1"]),
                 *flags, "--region", region, "--seed", "8", "--out-image", str(out / "spliced.sarf"),
                 "--out-mask", str(out / "mask.sarf"),
                 "--out-provenance", str(out / "provenance.json")]) == 0
    height, width, col, row = parse_region(region)
    spliced, mask, record = place_splice(
        rng(8), read_raster(product["amp0"]), read_raster(product["amp1"]), (height, width), op, 8,
        target_origin=None if row is None else (row, col),
    )
    write_raster(spliced, ref / "spliced.sarf")
    write_raster(mask, ref / "mask.sarf")
    for name in ("spliced.sarf", "mask.sarf"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()
    provenance = json.loads((out / "provenance.json").read_text())
    assert {key: provenance[key] for key in record} == record
    assert sorted(provenance.keys() - record.keys()) == ["donor", "seed", "target"]


def test_forge_takes_a_complex_target_as_its_amplitude(tmp_path, product):
    # amp0 holds the amplitude of complex0
    for name in ("amp0", "complex0"):
        (tmp_path / name).mkdir()
        argv = _forge_argv(product, tmp_path / name)
        argv[argv.index("--target") + 1] = str(product[name])
        assert main(argv) == 0
    for raster in ("spliced.sarf", "mask.sarf"):
        assert (tmp_path / "complex0" / raster).read_bytes() == (tmp_path / "amp0" / raster).read_bytes()


@pytest.mark.parametrize("flags, message", [
    (["--a", "{mask}", "--b", "{amp}"], "{mask}: expected an amplitude raster, got TamperMask"),
    (["--a", "{amp}", "--b", "{amp}", "--mask", "{amp}"], "{amp}: expected a mask raster"),
], ids=["mask-as-image", "amplitude-as-mask"])
def test_metrics_rejects_a_raster_of_the_other_kind(tmp_path, product, capsys, flags, message):
    paths = {"amp": product["amp0"], "mask": tmp_path / "mask.sarf"}
    write_raster(TamperMask(np.eye(128, dtype=np.uint8)), paths["mask"])
    assert main(["metrics", *(flag.format(**paths) for flag in flags)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"sarfx: error: {message.format(**paths)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("size", ["0", "-4"])
def test_tile_rejects_a_nonpositive_size(tmp_path, product, capsys, size):
    out_dir = tmp_path / "tiles"
    argv = ["tile", "--input", str(product["amp0"]), "--size", size, "--out-dir", str(out_dir)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"sarfx: error: --size must be a positive integer, got {size}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["forge", "attack"])
def test_out_of_range_seed_is_a_clean_error(tmp_path, product, capsys, monkeypatch, command, seed):
    def load_filter(plan):
        raise AssertionError("H was loaded for an attack whose seed is out of range")

    out = str(tmp_path / "out.sarf")
    if command == "forge":
        argv = ["forge", "--target", str(product["amp0"]), "--donor", str(product["amp1"]),
                "--region", "16x16", "--out-image", out, "--out-mask", str(tmp_path / "m.sarf")]
    else:
        monkeypatch.setattr(cli, "load_filter", load_filter)  # the seed is checked first
        argv = ["attack", "--input", str(product["amp0"]), "--out", out,
                "--filter", f"estimate:direct:{product['complex1']}",
                "--smoothing-sigma", "5.0", "--smoothing-kernel", "31"]
    assert main(argv + ["--seed", seed]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("sarfx: error: seed must be in [0, 2**64)")
    assert not list(tmp_path.glob("out.sarf*"))


# Each bad sarfx attack flag: its argv tail and the one error line it prints.
_BAD_ATTACK_FLAGS = {
    "missing-known-filter": (["--filter", "known:missing.sarf"],
                             "known filter path does not exist: missing.sarf"),
    "unknown-strategy": (["--filter", "estimate:wiener:x.sarf"],
                         "invalid estimation strategy 'wiener'; "
                         "accepted: ['gaussian', 'raised_cosine', 'direct']"),
    "even-smoothing-kernel": (["--filter", "estimate:direct:{complex1}", "--smoothing-kernel", "4"],
                              "attack plan 'smoothing': kernel size must be a positive odd "
                              "integer, got 4"),
    "zero-speckle-sigma": (["--filter", "estimate:direct:{complex1}", "--speckle-sigma", "0"],
                           "attack plan 'sigma_s' must be a positive number, got 0.0"),
    "infinite-speckle-sigma": (["--filter", "estimate:direct:{complex1}", "--speckle-mode", "full",
                                "--speckle-sigma", "inf"],
                               "attack plan 'sigma_s' must be a positive number, got inf"),
    "infinite-smoothing-sigma": (["--filter", "estimate:direct:{complex1}", "--smoothing-sigma", "inf"],
                                 "attack plan 'smoothing': sigma must be a positive number, got inf"),
}


def test_attack_rejects_a_complex_known_filter(tmp_path, product, capsys):
    # a response is real: casting a complex raster to one would drop its imaginary part
    path = product["complex1"]
    assert main(["attack", "--input", str(product["amp0"]), "--filter", f"known:{path}",
                 "--seed", "1", "--out", str(tmp_path / "out.sarf")]) == 1
    assert capsys.readouterr().err == (
        f"sarfx: error: {path}: a known H must be a real raster, not a complex one\n")
    assert not list(tmp_path.glob("out.sarf*"))


@pytest.mark.parametrize("case", list(_BAD_ATTACK_FLAGS))
def test_attack_flags_are_checked_like_the_config_attack_plan(tmp_path, product, capsys,
                                                             monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    tail, message = _BAD_ATTACK_FLAGS[case]
    tail = [arg.format(complex1=product["complex1"]) for arg in tail]
    assert main(["attack", "--input", str(product["amp0"]), "--seed", "1",
                 "--out", "out.sarf", *tail]) == 1
    assert capsys.readouterr().err == f"sarfx: error: {message}\n"
    assert not list(tmp_path.glob("out.sarf*"))


@pytest.mark.parametrize("flags, message", [
    (["--smoothing-kernel", "4"], "--smoothing-kernel: kernel size must be a positive odd integer, got 4"),
    (["--smoothing-sigma", "-1"], "--smoothing-sigma: sigma must be a positive number, got -1.0"),
    (["--smoothing-sigma", "inf"], "--smoothing-sigma: sigma must be a positive number, got inf"),
], ids=["even-kernel", "negative-sigma", "infinite-sigma"])
def test_estimate_filter_smoothing_errors_name_the_flag(tmp_path, product, capsys, flags, message):
    out = tmp_path / "h.sarf"
    assert main(["estimate-filter", "--strategy", "raised-cosine", "--sources", str(product["complex0"]),
                 "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"sarfx: error: {message}\n"
    assert not list(tmp_path.glob("h.sarf*"))


@pytest.mark.parametrize("strategy, fields", [
    ("gaussian", ["gain_x", "mean_x", "std_x", "gain_y", "mean_y", "std_y"]),
    ("raised-cosine", ["a_x", "b_x", "cutoff_x", "a_y", "b_y", "cutoff_y"]),
])
def test_estimate_filter_sidecar_records_solver_diagnostics(tmp_path, product, strategy, fields):
    out = tmp_path / "h.sarf"
    assert main(["estimate-filter", "--strategy", strategy, "--sources", str(product["complex0"]),
                 "--out", str(out), "--smoothing-sigma", "5.0", "--smoothing-kernel", "31"]) == 0
    (params,) = json.loads((tmp_path / "h.sarf.json").read_text())["fit_params"]
    assert sorted(params) == sorted(fields + ["residual", "iterations", "stop"])
    assert isinstance(params["iterations"], int) and params["iterations"] >= 1
    assert params["stop"] in ("step", "cost", "damping", "exact")


@pytest.mark.parametrize("command", ["attack", "estimate-filter"])
def test_fit_failure_is_a_clean_error(tmp_path, product, capsys, monkeypatch, command):
    def diverge(*args, **kwargs):
        raise FitDivergenceError("iteration cap reached")

    monkeypatch.setattr(sysid, "least_squares", diverge)
    out = str(tmp_path / "out.sarf")
    if command == "attack":
        argv = ["attack", "--input", str(product["amp0"]), "--seed", "1", "--out", out,
                "--filter", f"estimate:raised-cosine:{product['complex1']}"]
    else:
        argv = ["estimate-filter", "--strategy", "raised-cosine",
                "--sources", str(product["complex1"]), "--out", out]
    assert main(argv + ["--smoothing-sigma", "5.0", "--smoothing-kernel", "31"]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert err == ["sarfx: error: iterative least-squares fit did not converge: "
                   "iteration cap reached"]


def _forge_argv(product, out, *extra):
    return ["forge", "--target", str(product["amp0"]), "--donor", str(product["amp1"]),
            "--edit", "gaussian_blur", "--region", "32x32", "--seed", "5",
            "--out-image", str(out / "spliced.sarf"), "--out-mask", str(out / "mask.sarf"), *extra]


# Each CLI output written outside sarfx.raster's rasters: its file name and its argv.
_ATOMIC_CLI_OUTPUTS = {
    "estimate-filter-sidecar": ("h.sarf.json", lambda product, out: [
        "estimate-filter", "--strategy", "direct", "--sources", str(product["complex0"]),
        "--out", str(out / "h.sarf"), "--smoothing-sigma", "5.0", "--smoothing-kernel", "31"]),
    "forge-provenance": ("provenance.json", lambda product, out: _forge_argv(
        product, out, "--out-provenance", str(out / "provenance.json"))),
    "forge-mask-pgm": ("mask.pgm", lambda product, out: _forge_argv(
        product, out, "--out-mask-pgm", str(out / "mask.pgm"))),
    "spectrum-out": ("profile.csv", lambda product, out: [
        "spectrum", "--input", str(product["amp0"]), "--out", str(out / "profile.csv")]),
    "metrics-out": ("report.json", lambda product, out: [
        "metrics", "--a", str(product["amp0"]), "--b", str(product["amp1"]),
        "--out", str(out / "report.json")]),
}


@pytest.mark.parametrize("case", sorted(_ATOMIC_CLI_OUTPUTS))
def test_cli_failed_output_write_leaves_no_partial_or_temp_file(tmp_path, product, capsys,
                                                                monkeypatch, case):
    name, argv = _ATOMIC_CLI_OUTPUTS[case]
    out = tmp_path / "out"
    out.mkdir()
    assert main(argv(product, out)) == 0
    kept = (out / name).read_bytes()
    files = sorted(p.name for p in out.iterdir())
    fail_raster_module_writes(monkeypatch, name)
    capsys.readouterr()
    assert main(argv(product, out)) == 1
    assert capsys.readouterr().err.splitlines() == ["sarfx: error: [Errno 28] No space left on device"]
    # the old file survives a failed overwrite, and no temp file is left
    assert (out / name).read_bytes() == kept
    assert sorted(p.name for p in out.iterdir()) == files
    (out / name).unlink()
    assert main(argv(product, out)) == 1
    assert sorted(p.name for p in out.iterdir()) == [f for f in files if f != name]


# ---------------------------------------------------------------------------
# Experiment orchestration
# ---------------------------------------------------------------------------


def _experiment_config(tmp_path, product, out_name="run"):
    config = {
        "schema_version": 1,
        "manifest": [
            {"id": "t0", "path": str(product["amp0"]), "product": "P"},
            {"id": "t1", "path": str(product["amp1"]), "product": "P"},
        ],
        "edits": [
            {"kind": "gaussian_blur"},
            {"kind": "upscale", "range_class": "near"},
        ],
        "region": [32, 32],
        "attack": {
            "filter": {"estimate": {"strategy": "direct", "sources": "self"}},
            "smoothing": {"sigma": 5.0, "kernel": 31},
            "speckle_mode": "phase_only",
            "histogram_match": True,
        },
        "master_seed": 4242,
        "out_dir": str(tmp_path / out_name),
    }
    path = tmp_path / f"{out_name}.json"
    path.write_text(json.dumps(config, indent=2))
    return path


def test_experiment_failed_writes_leave_no_partial_or_temp_file(tmp_path, product, capsys,
                                                               monkeypatch):
    config_path = _experiment_config(tmp_path, product)
    fail_raster_module_writes(monkeypatch)
    assert main(["experiment", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("sarfx: error: [Errno 28] No space left")
    # each job's first raster write and then the report write fail partway
    assert [p.relative_to(tmp_path / "run") for p in (tmp_path / "run").rglob("*")] == [Path("images")]


def test_experiment_runs_and_reports(tmp_path, product):
    config_path = _experiment_config(tmp_path, product)
    rc = main(["experiment", "--config", str(config_path)])
    assert rc == 0
    report = (tmp_path / "run" / "report.csv").read_text().strip().split("\n")
    assert report[0] == "id,edit,ssim,msssim,enl_a,enl_b,delta_enl_pct,auc"
    assert len(report) == 1 + 2 * 2  # items x edits
    for line in report[1:]:
        cells = line.split(",")
        assert cells[1] in ("gaussian_blur", "upscale_near")
        assert all(cells[k] for k in range(2, 7))  # metric fields populated
    summary = (tmp_path / "run" / "summary.csv").read_text().strip().split("\n")
    assert len(summary) == 3
    images = list((tmp_path / "run" / "images").glob("*_spliced.sarf"))
    assert len(images) == 4


def test_experiment_deterministic_reports(tmp_path, product):
    cfg_a = _experiment_config(tmp_path, product, "runA")
    cfg_b = _experiment_config(tmp_path, product, "runB")
    assert main(["experiment", "--config", str(cfg_a)]) == 0
    assert main(["experiment", "--config", str(cfg_b)]) == 0
    report_a = (tmp_path / "runA" / "report.csv").read_bytes()
    report_b = (tmp_path / "runB" / "report.csv").read_bytes()
    assert report_a == report_b
    assert (tmp_path / "runA" / "summary.csv").read_bytes() == (
        tmp_path / "runB" / "summary.csv"
    ).read_bytes()

    # a different master seed (flag override) must change the draws
    cfg_c = _experiment_config(tmp_path, product, "runC")
    assert main(["experiment", "--config", str(cfg_c), "--seed", "777",
                 "--out-dir", str(tmp_path / "runC")]) == 0
    assert (tmp_path / "runC" / "report.csv").read_bytes() != report_a


def test_experiment_pool_size_does_not_change_reports(tmp_path, product, monkeypatch):
    cfg_one = _experiment_config(tmp_path, product, "pool1")
    monkeypatch.setenv("SARFX_THREADS", "1")
    assert main(["experiment", "--config", str(cfg_one)]) == 0
    cfg_four = _experiment_config(tmp_path, product, "pool4")
    monkeypatch.setenv("SARFX_THREADS", "4")
    assert main(["experiment", "--config", str(cfg_four)]) == 0
    assert (tmp_path / "pool1" / "report.csv").read_bytes() == (
        tmp_path / "pool4" / "report.csv"
    ).read_bytes()


def test_experiment_ten_tiles_seven_edits(tmp_path):
    # full edit catalog over ten synthetic tiles: 70 rows, metrics populated
    rng = np.random.default_rng(60)
    manifest = []
    for k in range(10):
        path = tmp_path / f"tile{k}.sarf"
        write_raster(AmplitudeImage(rng.uniform(100, 4000, (96, 96))), path)
        manifest.append({"id": f"tile{k}", "path": str(path), "product": f"P{k % 2}"})
    config = {
        "schema_version": 1,
        "manifest": manifest,
        "edits": [
            {"kind": "gaussian_blur"},
            {"kind": "upscale", "range_class": "near"},
            {"kind": "upscale", "range_class": "far"},
            {"kind": "downscale", "range_class": "near"},
            {"kind": "downscale", "range_class": "far"},
            {"kind": "rotate", "range_class": "near"},
            {"kind": "rotate", "range_class": "far"},
        ],
        "region": [24, 24],
        "master_seed": 77,
        "out_dir": str(tmp_path / "catalog"),
    }
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(path)]) == 0
    lines = (tmp_path / "catalog" / "report.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 70
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 8
        assert all(cells[k] != "" for k in range(7))  # all metric fields populated


def test_experiment_empty_manifest(tmp_path):
    config = {
        "schema_version": 1,
        "manifest": [],
        "edits": [{"kind": "none"}],
        "region": [16, 16],
        "master_seed": 1,
        "out_dir": str(tmp_path / "empty"),
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(config))
    rc = main(["experiment", "--config", str(path)])
    assert rc == 0
    report = (tmp_path / "empty" / "report.csv").read_text().strip().split("\n")
    assert report == ["id,edit,ssim,msssim,enl_a,enl_b,delta_enl_pct,auc"]
    # an edit with no scored rows still gets its summary line, with empty means
    assert (tmp_path / "empty" / "summary.csv").read_text() == (
        "edit,n,mean_ssim,mean_msssim,mean_delta_enl_pct,mean_auc\nnone,0,,,,\n"
    )


def test_experiment_partial_failure_reports_errors(tmp_path, product):
    small = tmp_path / "small.sarf"
    write_raster(AmplitudeImage(np.random.default_rng(0).uniform(1, 9, (64, 64))), small)
    config = {
        "schema_version": 1,
        "manifest": [
            {"id": "ok0", "path": str(product["amp0"]), "product": "P"},
            {"id": "ok1", "path": str(product["amp1"]), "product": "P"},
            {"id": "bad", "path": str(small), "product": "Q"},  # tile smaller than region
        ],
        "edits": [{"kind": "none"}],
        "region": [96, 96],
        "master_seed": 3,
        "out_dir": str(tmp_path / "partial"),
    }
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(config))
    rc = main(["experiment", "--config", str(path)])
    assert rc == 1
    errors = json.loads((tmp_path / "partial" / "errors.json").read_text())
    assert list(errors) == ["bad/none"]
    report = (tmp_path / "partial" / "report.csv").read_text().strip().split("\n")
    assert len(report) == 4  # header + one row per job, failure included as blanks
    assert report[1].startswith("ok0,none,") and report[1].split(",")[2] != ""
    assert report[3] == "bad,none,,,,,,"


def _fingerprint_run(tmp_path, product, fingerprint):
    """A config whose second manifest item carries ``fingerprint``, written to disk."""
    fp_path = tmp_path / "fp.sarf"
    write_raster(fingerprint, fp_path)
    config = {
        "schema_version": 1,
        "manifest": [
            {"id": "ok", "path": str(product["amp0"]), "product": "P"},
            {"id": "scored", "path": str(product["amp1"]), "product": "P", "fingerprint": str(fp_path)},
        ],
        "edits": [{"kind": "none"}],
        "region": [16, 16],
        "master_seed": 5,
        "out_dir": str(tmp_path / "fp"),
    }
    path = tmp_path / "fp.json"
    path.write_text(json.dumps(config))
    return path, fp_path


def test_experiment_mask_fingerprint_is_rejected_at_load(tmp_path, product, capsys):
    # a mask raster is not detector scores: its header's kind fails the config
    mask_plane = np.zeros((128, 128), dtype=np.uint8)
    mask_plane[:8, :8] = 1
    path, fp_path = _fingerprint_run(tmp_path, product, TamperMask(mask_plane))
    assert main(["experiment", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"sarfx: error: {fp_path}: masks cannot serve as fingerprints\n"
    assert not (tmp_path / "fp").exists()


def test_experiment_fingerprint_of_another_shape_is_rejected_at_load(tmp_path, product, capsys):
    # 64x256 scores hold as many values as the 128x128 tile, and used to be scored
    scores = AmplitudeImage(np.random.default_rng(3).random((64, 256)))
    path, fp_path = _fingerprint_run(tmp_path, product, scores)
    assert main(["experiment", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (f"sarfx: error: fingerprint {fp_path} is 64x256, "
                                       f"its tile {product['amp1']} 128x128\n")
    assert not (tmp_path / "fp").exists()


def test_cli_metrics_rejects_fingerprint_of_another_shape(tmp_path, product, capsys):
    fp_path = tmp_path / "fp.sarf"
    write_raster(AmplitudeImage(np.random.default_rng(4).random((64, 256))), fp_path)
    mask_plane = np.zeros((128, 128), dtype=np.uint8)
    mask_plane[10:40, 10:40] = 1
    write_raster(TamperMask(mask_plane), tmp_path / "m.sarf")
    out = tmp_path / "m.json"
    assert main(["metrics", "--a", str(product["amp0"]), "--b", str(product["amp1"]), "--fingerprint",
                 str(fp_path), "--mask", str(tmp_path / "m.sarf"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("sarfx: error: fingerprint shape (64, 256) does not match "
                                       "mask (128, 128)\n")
    assert not out.exists()


def _shared_filter_run(tmp_path, product, name, flt):
    config = json.loads(_experiment_config(tmp_path, product, name).read_text())
    config["attack"]["filter"] = flt
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    return main(["experiment", "--config", str(path)]), tmp_path / name


def test_experiment_estimates_a_shared_filter_once(tmp_path, product, monkeypatch):
    # two items x two edits share one sibling source: one estimate per call,
    # and the run equals one that is handed that estimate as a known H
    calls = []
    estimate = experiment.estimate_transfer_function

    def counted(*args, **kwargs):
        calls.append(args[1])
        return estimate(*args, **kwargs)

    monkeypatch.setattr(experiment, "estimate_transfer_function", counted)
    sibling = str(product["complex1"])
    flt = {"estimate": {"strategy": "raised-cosine", "sources": [sibling]}}
    rc, shared_dir = _shared_filter_run(tmp_path, product, "shared", flt)
    assert rc == 0
    assert calls == ["raised_cosine"]

    h = estimate_transfer_function([read_raster(sibling)], "raised_cosine",
                                   sigma=5.0, kernel_size=31)
    write_raster(AmplitudeImage(h.values, 16), tmp_path / "h.sarf")
    rc, known_dir = _shared_filter_run(tmp_path, product, "known",
                                       {"known": str(tmp_path / "h.sarf")})
    assert rc == 0
    assert (shared_dir / "report.csv").read_bytes() == (known_dir / "report.csv").read_bytes()
    attacked = sorted(p.name for p in (shared_dir / "images").glob("*_attacked.sarf"))
    assert len(attacked) == 4
    for name in attacked:
        assert (shared_dir / "images" / name).read_bytes() == (
            known_dir / "images" / name
        ).read_bytes()


def test_experiment_failed_shared_estimate_fails_every_job(tmp_path, product):
    zero = tmp_path / "zero_complex.sarf"
    write_raster(ComplexImage(np.zeros((128, 128))), zero)
    flt = {"estimate": {"strategy": "direct", "sources": [str(zero)]}}
    rc, out = _shared_filter_run(tmp_path, product, "zero", flt)
    assert rc == 1
    errors = json.loads((out / "errors.json").read_text())
    assert list(errors) == ["t0/gaussian_blur", "t0/upscale_near",
                            "t1/gaussian_blur", "t1/upscale_near"]
    assert set(errors.values()) == {
        "DegenerateSpectrumError: all-zero spectrum has no direct estimate"
    }
    report = (out / "report.csv").read_text().strip().split("\n")
    assert report[1:] == ["t0,gaussian_blur,,,,,,", "t0,upscale_near,,,,,,",
                          "t1,gaussian_blur,,,,,,", "t1,upscale_near,,,,,,"]
    assert (out / "summary.csv").read_text().splitlines()[1:] == [
        "gaussian_blur,0,,,,", "upscale_near,0,,,,"
    ]


def test_experiment_pool_is_capped_by_the_jobs(tmp_path, product, monkeypatch):
    # one pool per call, shared by the H load and the jobs, never larger than the job list
    sizes = []

    class Recorded(experiment.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(experiment, "ThreadPoolExecutor", Recorded)
    monkeypatch.setenv("SARFX_THREADS", str(10**9))
    flt = {"estimate": {"strategy": "direct", "sources": [str(product["complex1"])]}}
    rc, _ = _shared_filter_run(tmp_path, product, "capped", flt)
    assert rc == 0
    assert sizes == [4]


def test_experiment_shared_filter_is_built_on_a_pool_worker(tmp_path, product, monkeypatch):
    threads = []
    load = experiment.load_filter

    def recorded(plan):
        threads.append(threading.current_thread())
        return load(plan)

    monkeypatch.setattr(experiment, "load_filter", recorded)
    flt = {"estimate": {"strategy": "direct", "sources": [str(product["complex1"])]}}
    rc, _ = _shared_filter_run(tmp_path, product, "worker", flt)
    assert rc == 0
    assert len(threads) == 1 and threads[0] is not threading.main_thread()


def test_experiment_manifest_read_error_raises_before_out_dir(tmp_path, product):
    # a tile that breaks between config load and run fails the call, and makes no out_dir
    config = ExperimentConfig.from_json(_experiment_config(tmp_path, product, "late"))
    Path(product["amp1"]).write_bytes(Path(product["amp1"]).read_bytes()[:-8])
    with pytest.raises(RasterError, match="payload size mismatch"):
        experiment.run_experiment(config)
    assert not (tmp_path / "late").exists()


_BAD_ATTACK_PLANS = {
    "unknown-top-key": lambda c: c["attack"].update({"speckle-mode": "full"}),
    "unknown-filter-key": lambda c: c["attack"]["filter"].update({"guess": {}}),
    "unknown-estimate-key": lambda c: c["attack"]["filter"]["estimate"].update({"source": "self"}),
    "unknown-smoothing-key": lambda c: c["attack"]["smoothing"].update({"size": 31}),
    "unknown-strategy": lambda c: c["attack"]["filter"]["estimate"].update({"strategy": "wiener"}),
    "known-strategy": lambda c: c["attack"]["filter"]["estimate"].update({"strategy": "known"}),
    "zero-region": lambda c: c.update({"region": [0, 32]}),
    "negative-region": lambda c: c.update({"region": [32, -4]}),
    "bad-speckle-mode": lambda c: c["attack"].update({"speckle_mode": "phase-only"}),
    "unknown-edit-key": lambda c: c["edits"].append({"kind": "none", "parmeter": 3}),
    "edit-without-kind": lambda c: c["edits"].append({"range_class": "far"}),
    "string-edit-parameter": lambda c: c["edits"].append(
        {"kind": "upscale", "range_class": "fixed", "parameter": "abc"}),
    "bool-edit-parameter": lambda c: c["edits"].append(
        {"kind": "rotate", "range_class": "fixed", "parameter": True}),
    "nan-edit-parameter": lambda c: c["edits"].append(
        {"kind": "rotate", "range_class": "fixed", "parameter": float("nan")}),
    "infinite-edit-parameter": lambda c: c["edits"].append(
        {"kind": "upscale", "range_class": "fixed", "parameter": float("inf")}),
    "negative-blur-sigma": lambda c: c["edits"].append({"kind": "gaussian_blur", "parameter": -1.0}),
    "zero-fixed-downscale": lambda c: c["edits"].append(
        {"kind": "downscale", "range_class": "fixed", "parameter": 0.0}),
    "string-region": lambda c: c.update({"region": "abc"}),
    "one-side-region": lambda c: c.update({"region": [16]}),
    "fractional-region": lambda c: c.update({"region": [16.5, 16]}),
    "region-beyond-every-tile": lambda c: c.update({"region": [200, 16]}),
    "missing-master-seed": lambda c: c.pop("master_seed"),
    "missing-out-dir": lambda c: c.pop("out_dir"),
    "missing-manifest": lambda c: c.pop("manifest"),
    "string-manifest": lambda c: c.update({"manifest": "t0.sarf"}),
    "number-edits": lambda c: c.update({"edits": 5}),
    "string-master-seed": lambda c: c.update({"master_seed": "abc"}),
    "fractional-master-seed": lambda c: c.update({"master_seed": 1.5}),
    "number-known-filter": lambda c: c["attack"].update({"filter": {"known": 5}}),
    "manifest-entry-without-id": lambda c: c["manifest"][0].pop("id"),
    "manifest-entry-without-path": lambda c: c["manifest"][1].pop("path"),
    "string-histogram-match": lambda c: c["attack"].update({"histogram_match": "false"}),
    "string-sigma-s": lambda c: c["attack"].update({"sigma_s": "x"}),
    "bool-sigma-s": lambda c: c["attack"].update({"sigma_s": True}),
    "zero-sigma-s": lambda c: c["attack"].update({"sigma_s": 0}),
    "infinite-sigma-s": lambda c: c["attack"].update({"speckle_mode": "full", "sigma_s": float("inf")}),
    "infinite-smoothing-sigma": lambda c: c["attack"]["smoothing"].update({"sigma": float("inf")}),
    "huge-integer-sigma-s": lambda c: c["attack"].update({"sigma_s": 10**400}),
    "huge-integer-smoothing-sigma": lambda c: c["attack"]["smoothing"].update({"sigma": 10**400}),
    "string-smoothing-sigma": lambda c: c["attack"]["smoothing"].update({"sigma": "x"}),
    "negative-smoothing-sigma": lambda c: c["attack"]["smoothing"].update({"sigma": -2}),
    "even-smoothing-kernel": lambda c: c["attack"]["smoothing"].update({"kernel": 4}),
    "string-sources": lambda c: c["attack"]["filter"]["estimate"].update({"sources": "t0.sarf"}),
    "empty-source": lambda c: c["attack"]["filter"]["estimate"].update({"sources": [""]}),
    "empty-known-filter": lambda c: c["attack"].update({"filter": {"known": ""}}),
    "null-out-dir": lambda c: c.update({"out_dir": None}),
    "empty-out-dir": lambda c: c.update({"out_dir": ""}),
    "list-manifest-path": lambda c: c["manifest"][0].update({"path": ["t.sarf"]}),
    "number-fingerprint": lambda c: c["manifest"][0].update({"fingerprint": 5}),
    "list-fingerprint": lambda c: c["manifest"][1].update({"fingerprint": ["a"]}),
    "empty-fingerprint": lambda c: c["manifest"][1].update({"fingerprint": ""}),
    "escaping-id": lambda c: c["manifest"][0].update({"id": "../escape"}),
    "empty-id": lambda c: c["manifest"][0].update({"id": ""}),
    "dot-id": lambda c: c["manifest"][0].update({"id": "."}),
    "dot-dot-id": lambda c: c["manifest"][1].update({"id": ".."}),
    "backslash-id": lambda c: c["manifest"][1].update({"id": "a\\b"}),
    "nul-id": lambda c: c["manifest"][1].update({"id": "a\0b"}),
    "misspelt-attack": lambda c: c.update({"atack": c.pop("attack")}),
    "misspelt-fingerprint": lambda c: c["manifest"][0].update({"fingerprnt": "t0_fp.sarf"}),
    "schema-version-2": lambda c: c.update({"schema_version": 2}),
    "duplicate-manifest-id": lambda c: c["manifest"][1].update({"id": "t0"}),
    "duplicate-edit-label": lambda c: c["edits"].append({"kind": "gaussian_blur", "parameter": 2.0}),
    "number-manifest-entry": lambda c: c["manifest"].append(5),
    "known-and-estimate-filter": lambda c: c["attack"]["filter"].update({"known": "h.sarf"}),
    "absent-fingerprint-file": lambda c: c["manifest"][1].update({"fingerprint": "absent.sarf"}),
    "absent-estimate-source": lambda c: c["attack"]["filter"]["estimate"].update({"sources": ["absent.sarf"]}),
}


def _rejection(case):
    """The error a bad config case raises at load: a path that names no file is not found."""
    return FileNotFoundError if case.startswith("absent-") else ValueError


@pytest.mark.parametrize("case", sorted(_BAD_ATTACK_PLANS))
def test_experiment_config_rejected_at_the_edge(tmp_path, product, capsys, case):
    path = _experiment_config(tmp_path, product, "bad")
    config = json.loads(path.read_text())
    _BAD_ATTACK_PLANS[case](config)
    path.write_text(json.dumps(config))
    with pytest.raises(_rejection(case)):
        ExperimentConfig.from_json(path)
    assert main(["experiment", "--config", str(path)]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("sarfx: error: ")
    assert not (tmp_path / "bad").exists()


_CONFIG_KEYS = "['attack', 'edits', 'manifest', 'master_seed', 'out_dir', 'region', 'schema_version']"
_ENTRY_KEYS = "['fingerprint', 'id', 'path', 'product']"


@pytest.mark.parametrize("case, message", [
    ("bad-speckle-mode", "unknown speckle mode 'phase-only' in attack plan; accepted: ['full', 'phase_only']"),
    ("unknown-edit-key",
     "unknown key(s) ['parmeter'] in an edits entry; accepted: ['kind', 'parameter', 'range_class']"),
    ("edit-without-kind",
     "missing key(s) ['kind'] in an edits entry; accepted: ['kind', 'parameter', 'range_class']"),
    ("string-edit-parameter", "an edits entry's parameter must be a number or null, got 'abc'"),
    ("missing-master-seed", "missing key(s) ['master_seed'] in the config; accepted: " + _CONFIG_KEYS),
    ("string-master-seed", "master_seed must be an integer, got 'abc'"),
    ("manifest-entry-without-path", "missing key(s) ['path'] in a manifest entry; accepted: " + _ENTRY_KEYS),
    ("fractional-region", "region must be two positive integers [height, width], got [16.5, 16]"),
    ("region-beyond-every-tile",
     "region [200, 16] is larger than every manifest tile; 't0' is 128x128"),
    ("string-histogram-match", "attack plan 'histogram_match' must be true or false, got 'false'"),
    ("string-sigma-s", "attack plan 'sigma_s' must be a positive number, got 'x'"),
    ("infinite-sigma-s", "attack plan 'sigma_s' must be a positive number, got inf"),
    ("infinite-smoothing-sigma", "attack plan 'smoothing': sigma must be a positive number, got inf"),
    ("even-smoothing-kernel",
     "attack plan 'smoothing': kernel size must be a positive odd integer, got 4"),
    ("string-sources",
     "attack plan 'estimate' sources must be \"self\" or a nonempty list of raster paths, "
     "got 't0.sarf'"),
    ("null-out-dir", "'out_dir' must be a nonempty path string, got None"),
    ("list-manifest-path", "a manifest entry's 'path' must be a nonempty path string, got ['t.sarf']"),
    ("number-fingerprint", "a manifest entry's 'fingerprint' must be a nonempty path string, got 5"),
    ("list-fingerprint", "a manifest entry's 'fingerprint' must be a nonempty path string, got ['a']"),
    ("escaping-id", "a manifest entry's 'id' must be a file name without '/', '\\' or NUL, "
                    "and not '.' or '..', got '../escape'"),
    ("dot-dot-id", "a manifest entry's 'id' must be a file name without '/', '\\' or NUL, "
                   "and not '.' or '..', got '..'"),
    ("unknown-strategy",
     "invalid estimation strategy 'wiener'; accepted: ['gaussian', 'raised_cosine', 'direct']"),
    ("nan-edit-parameter", "edit parameter must be finite, got nan"),
    ("infinite-edit-parameter", "edit parameter must be finite, got inf"),
    ("negative-blur-sigma", "gaussian_blur sigma must be nonnegative, got -1.0"),
    ("zero-fixed-downscale", "downscale factor must be positive, got 0.0"),
    ("misspelt-attack", "unknown key(s) ['atack'] in the config; accepted: " + _CONFIG_KEYS),
    ("misspelt-fingerprint", "unknown key(s) ['fingerprnt'] in a manifest entry; accepted: " + _ENTRY_KEYS),
    ("schema-version-2", "unsupported config schema version 2"),
    ("duplicate-manifest-id", "manifest ids must be unique"),
    ("duplicate-edit-label", "edit labels must be unique, got ['gaussian_blur', 'upscale_near', 'gaussian_blur']"),
    ("number-manifest-entry", "a manifest entry must be an object, got 5"),
    ("known-and-estimate-filter", "attack plan filter must carry exactly one of 'known'/'estimate'"),
    ("absent-fingerprint-file", "fingerprint path does not exist: absent.sarf"),
    ("absent-estimate-source", "filter source does not exist: absent.sarf"),
], ids=["bad-speckle-mode", "unknown-edit-key", "edit-without-kind", "string-edit-parameter",
        "missing-master-seed", "string-master-seed", "manifest-entry-without-path", "fractional-region",
        "region-beyond-every-tile", "string-histogram-match", "string-sigma-s",
        "infinite-sigma-s", "infinite-smoothing-sigma",
        "even-smoothing-kernel", "string-sources", "null-out-dir", "list-manifest-path",
        "number-fingerprint", "list-fingerprint", "escaping-id", "dot-dot-id", "unknown-strategy",
        "nan-edit-parameter", "infinite-edit-parameter", "negative-blur-sigma",
        "zero-fixed-downscale", "misspelt-attack", "misspelt-fingerprint", "schema-version-2",
        "duplicate-manifest-id", "duplicate-edit-label", "number-manifest-entry",
        "known-and-estimate-filter", "absent-fingerprint-file", "absent-estimate-source"])
def test_experiment_config_error_names_accepted_values(tmp_path, product, case, message):
    path = _experiment_config(tmp_path, product, "bad")
    config = json.loads(path.read_text())
    _BAD_ATTACK_PLANS[case](config)
    path.write_text(json.dumps(config))
    with pytest.raises(_rejection(case)) as excinfo:
        ExperimentConfig.from_json(path)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("kind", ["complex", "mask"])
def test_experiment_non_amplitude_manifest_raster_is_rejected_at_load(tmp_path, product, capsys,
                                                                       kind):
    path = _experiment_config(tmp_path, product, "bad")
    config = json.loads(path.read_text())
    if kind == "mask":
        write_raster(TamperMask(np.zeros((128, 128), dtype=np.uint8)), tmp_path / "mask.sarf")
    config["manifest"][1]["path"] = str(product["complex1"] if kind == "complex"
                                        else tmp_path / "mask.sarf")
    path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(path)]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert err == [f"sarfx: error: manifest item t1 is not an amplitude raster: "
                   f"{config['manifest'][1]['path']}"]
    assert not (tmp_path / "bad").exists()


def test_experiment_empty_out_dir_override_is_rejected(tmp_path, product, capsys, monkeypatch):
    path = _experiment_config(tmp_path, product)
    monkeypatch.chdir(tmp_path)
    assert main(["experiment", "--config", str(path), "--out-dir", ""]) == 1
    assert capsys.readouterr().err == "sarfx: error: --out-dir must be a nonempty path\n"
    assert not (tmp_path / "report.csv").exists()


def test_experiment_null_fingerprint_means_none(tmp_path, product):
    path = _experiment_config(tmp_path, product)
    config = json.loads(path.read_text())
    config["manifest"][0]["fingerprint"] = None
    path.write_text(json.dumps(config))
    assert ExperimentConfig.from_json(path).manifest[0].fingerprint is None


def test_experiment_rejects_missing_paths(tmp_path):
    config = {
        "schema_version": 1,
        "manifest": [{"id": "x", "path": str(tmp_path / "nope.sarf"), "product": "P"}],
        "edits": [{"kind": "none"}],
        "region": [8, 8],
        "master_seed": 1,
        "out_dir": str(tmp_path / "o"),
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(path)]) == 1


def test_seed_derivation_stable_and_decoupled():
    a = derive_seed(1, "item", "splice")
    assert a == derive_seed(1, "item", "splice")
    assert a != derive_seed(1, "item", "attack")
    assert a != derive_seed(2, "item", "splice")
    assert a != derive_seed(1, "item2", "splice")
    assert 0 <= a < 2**64


def test_worker_count_env_cap(monkeypatch):
    monkeypatch.setenv("SARFX_THREADS", "2")
    assert worker_count() == 2
    monkeypatch.setenv("SARFX_THREADS", "0")
    assert worker_count() == 1
    # the pool is capped at the job count where it is made, not here
    monkeypatch.setenv("SARFX_THREADS", str(10**9))
    assert worker_count() == 10**9


def test_non_integer_thread_cap_is_a_clean_error(tmp_path, product, capsys, monkeypatch):
    monkeypatch.setenv("SARFX_THREADS", "four")
    with pytest.raises(ValueError, match="SARFX_THREADS must be an integer, got 'four'"):
        worker_count()
    assert main(["experiment", "--config", str(_experiment_config(tmp_path, product))]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert err == ["sarfx: error: SARFX_THREADS must be an integer, got 'four'"]


def test_edit_labels():
    assert edit_label(EditOp("gaussian_blur")) == "gaussian_blur"
    assert edit_label(EditOp("upscale", range_class="far")) == "upscale_far"
    assert edit_label(EditOp("rotate", 90.0, "fixed")) == "rotate"
