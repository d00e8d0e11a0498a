"""Batch-experiment benchmark for sarfx.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --trace 1 --write-reference

Run from the root of a source checkout; the package is imported from its
``src`` directory. Inputs (1024x1024 tiles and a config JSON) are generated
from the seed, then ``sarfx.run_experiment`` is called repeatedly, each call
in a fresh child interpreter, for about S seconds. Load comes from this one
process; the experiment's own thread pool keeps its default size.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` traced and untraced calls alternate and it carries the
per-layer metrics, the traced and untraced throughput among them. Every run
checks the outputs (see check.py). ``--write-reference`` makes one call and
stores its report rows and artifact hashes (with ``--trace 1`` also the
per-layer digests) as the reference for that seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
from workloads import TILE, WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
RECORD_DIR = Path(".perfbench") / "records"
MIN_CALLS = 3
DEADLINE_S = 175.0  # the whole run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "SARFX_THREADS")


class BenchError(Exception):
    pass


def child(args: list[str], deadline: float) -> dict:
    """Run child.py to completion and return the JSON record it prints."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before the next call")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("an experiment call ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"an experiment call exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(workload, seed: int, size: int, workers: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workers": workers,
        "workload": workload.name,
        "seed": seed,
        "tile": size,
        "jobs_per_call": workload.jobs,
    }


def reference_path(workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def load_reference(workload, seed: int, size: int) -> dict | None:
    path = reference_path(workload)
    if size != TILE or not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def save_reference(workload, seed: int, entry: dict) -> None:
    path = reference_path(workload)
    data = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
    data["tolerance"] = check.TOLERANCE
    data["tile"] = TILE
    data["seeds"][str(seed)] = entry
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def measure(args, workload, work: Path, deadline: float) -> dict:
    in_dir, out_dir = work / "in", work / "out"
    config = str(make_inputs(workload, args.seed, in_dir, out_dir, args.size))
    calls = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(calls) % 2 == 0
        extra = ["--spans", str(RECORD_DIR / f"{work.name}-call{len(calls)}.spans.jsonl")] if traced else []
        record = child([config, *extra], deadline)
        record["traced"] = traced
        calls.append(record)
        elapsed = time.perf_counter() - start
        if args.write_reference:
            break
        if len(calls) >= MIN_CALLS and elapsed + elapsed / len(calls) > args.seconds:
            break
    return {"in_dir": in_dir, "out_dir": out_dir, "calls": calls}


def verify(workload, run: dict, reference: dict | None, region_px: int) -> dict:
    """Count failed jobs over all calls and score the final artifacts."""
    calls = run["calls"]
    first = {check.row_key(r): r for r in calls[0]["rows"]}
    problems, detector = {}, []
    for row in calls[-1]["rows"]:
        try:
            found, score = check.check_job(run["out_dir"] / "images", run["in_dir"], row, region_px)
            detector.append(score)
        except (OSError, ValueError) as exc:  # a missing or malformed artifact fails the job
            found = [f"{type(exc).__name__}: {exc}"]
        if found:
            problems[check.row_key(row)] = found
    failed, max_dev = 0, 0.0
    for record in calls:
        bad = set(record["errors"]) | set(problems)
        bad |= {check.row_key(r) for r in record["rows"] if first.get(check.row_key(r)) != r}
        if reference is not None:
            dev, beyond = check.compare_rows(record["rows"], reference["rows"])
            max_dev = max(max_dev, dev)
            bad |= beyond
        failed += len(bad)
    return {
        "attempted": workload.jobs * len(calls),
        "failed": failed,
        "max_dev": max_dev,
        "problems": problems,
        "errors": {k: v for record in calls for k, v in record["errors"].items()},
        "detector_auc": statistics.fmean(detector) if detector else 0.0,
        "ssim": [r["ssim"] for r in calls[-1]["rows"]],
    }


def jobs_per_s(records) -> float:
    return statistics.median(len(r["rows"]) / r["wall_s"] for r in records)


def end_to_end(run: dict, result: dict) -> dict:
    calls = run["calls"]
    return {
        "jobs_per_s": (jobs_per_s(calls), "jobs/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in calls), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in calls), "MB"),
        "job_ok_ratio": (1.0 - result["failed"] / result["attempted"], "ratio"),
        "attack_ssim": (statistics.fmean(result["ssim"]) if result["ssim"] else 0.0, "1"),
        "detector_auc": (result["detector_auc"], "1"),
    }


def per_layer(run: dict, result: dict, reference: dict | None) -> tuple[dict, list]:
    import spans

    traced = [r for r in run["calls"] if r["traced"]]
    untraced = [r for r in run["calls"] if not r["traced"]]
    summaries = [r["trace"] for r in traced]
    metrics = spans.layer_metrics(summaries)
    traced_jps, untraced_jps = jobs_per_s(traced), jobs_per_s(untraced)
    metrics["experiment.traced_jobs_per_s"] = (traced_jps, "jobs/s")
    metrics["experiment.untraced_jobs_per_s"] = (untraced_jps, "jobs/s")
    metrics["experiment.trace_overhead_frac"] = (1.0 - traced_jps / untraced_jps, "ratio")

    compared_rows = bitexact = ref_artifacts = digest_match = ref_digests = 0
    if reference is not None:
        compared_rows = len(reference["rows"])
        artifacts = check.artifact_hashes(run["out_dir"])
        ref_artifacts = len(reference["artifacts"])
        bitexact = sum(artifacts.get(k) == v for k, v in reference["artifacts"].items())
        if "digests" in reference:
            mine = check.group_digests(summaries[0]["digests"])
            ref_digests = len(reference["digests"])
            digest_match = sum(mine.get(k) == v for k, v in reference["digests"].items())
    metrics["experiment.reference_rows"] = (compared_rows, "count")
    metrics["experiment.report_max_rel_dev"] = (result["max_dev"], "ratio")
    metrics["experiment.reference_artifacts"] = (ref_artifacts, "count")
    metrics["experiment.artifacts_bitexact_frac"] = (bitexact / ref_artifacts if ref_artifacts else 0.0, "ratio")
    metrics["experiment.reference_digests"] = (ref_digests, "count")
    metrics["experiment.digests_match_frac"] = (digest_match / ref_digests if ref_digests else 0.0, "ratio")
    return metrics, spans.self_time_table(summaries)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=TILE, help="tile edge; below 1024 only for smoke runs")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "sarfx" / "__init__.py").is_file():
        print(f"perfbench: error: no package sources at {SRC / 'sarfx'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # config paths are relative, so artifacts and digests do not name the checkout
    workload = WORKLOADS[args.workload]
    work = Path(".perfbench") / f"{workload.name}-s{args.seed}-t{args.trace}"
    RECORD_DIR.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = measure(args, workload, work, deadline)
        reference = None if args.write_reference else load_reference(workload, args.seed, args.size)
        region_px = (args.size // 8) ** 2
        result = verify(workload, run, reference, region_px)
        env = environment(workload, args.seed, args.size, run["calls"][0]["workers"])
        if args.write_reference:
            return write_reference(workload, args, run, result)
        if args.trace:
            metrics, table = per_layer(run, result, reference)
        else:
            metrics, table = end_to_end(run, result), []
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "env": env,
        "reference": "stored" if reference is not None else "none for this seed",
        "calls": [{"wall_s": r["wall_s"], "traced": r["traced"], "rss_mb": r["rss_mb"]} for r in run["calls"]],
        "setup_s": [r["setup_s"] for r in run["calls"]],
        "problems": result["problems"],
        "errors": result["errors"],
        "self_ms_per_job": table,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (RECORD_DIR / f"{work.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": env, "reference": record["reference"]}))
    for name, ms, calls in table[:12]:
        print(f"  self {ms:10.1f} ms/job  {calls:6d} calls  {name}")
    for key, found in result["problems"].items():
        print(f"  FAIL {key}: {'; '.join(found)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def write_reference(workload, args, run: dict, result: dict) -> int:
    if result["failed"]:
        print(f"perfbench: error: refusing to store a reference with failed jobs: "
              f"{result['problems'] or result['errors']}", file=sys.stderr)
        return 1
    record = run["calls"][0]
    entry = {"rows": record["rows"], "artifacts": check.artifact_hashes(run["out_dir"])}
    if record["traced"]:
        entry["digests"] = check.group_digests(record["trace"]["digests"])
    save_reference(workload, args.seed, entry)
    print(f"stored reference for {workload.name} seed {args.seed} in {reference_path(workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
