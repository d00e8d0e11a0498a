"""Self-checks of the benchmark itself.

    python3 perfbench/selftest.py

1. The tracer's self-time arithmetic on a hand-built span tree, including
   children that overlap (two pool threads) and a child that runs past its
   parent's end.
2. The tail percentile rule: the highest order statistic with at least ten
   samples beyond it.
3. A tiny-size smoke run of every workload, traced and untraced, asserting
   that the last stdout line has exactly the result keys and that every
   metric BENCHMARK.json names is emitted with its unit, and no other.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SMOKE_SIZE = 128


def check_self_times() -> None:
    S = spans.Span
    tree = [
        S(1, "root", 0.0, 10.0, None, None),
        S(2, "a", 1.0, 4.0, 1, "j0"),
        S(3, "b", 3.0, 6.0, 1, "j1"),  # overlaps a: another worker thread
        S(4, "a.child", 2.0, 3.0, 2, "j0"),
        S(5, "c", 8.0, 9.0, 1, None),
        S(6, "late", 9.5, 12.0, 1, None),  # only [9.5, 10] lies inside root
    ]
    got = spans.self_times(tree)
    # root: 10 - |[1,6] U [8,9] U [9.5,10]| = 10 - 6.5
    want = {1: 3.5, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0, 6: 2.5}
    for span_id, value in want.items():
        assert math.isclose(got[span_id], value), (span_id, got[span_id], value)


def _summary(job_s):
    by_name = {
        spans.JOB_SPAN: {"count": len(job_s), "total_s": sum(job_s), "self_s": 0.0, "attrs": {}},
        "forgery.edit_donor": {"count": 2, "total_s": 3.0, "self_s": 3.0, "attrs": {"px": 2048}},
        "forgery.random_splice": {"count": 2, "total_s": 3.5, "self_s": 0.5, "attrs": {"region_px": 32}},
    }
    return {
        "by_name": by_name,
        "solver": {"calls": 0, "seconds": 0.0, "iterations": 0},
        "job_s": job_s,
        "pre_job_s": 0.25,
        "call_s": sum(job_s) / 2,
        "workers": 2,
        "digests": [],
    }


def check_layer_arithmetic() -> None:
    job_s = [float(k) for k in range(1, 13)]  # 12 samples: rank 2 has 10 beyond it
    metrics = {k: v for k, (v, _) in spans.layer_metrics([_summary(job_s)]).items()}
    assert metrics["experiment.job_ms_tail"] == 2000.0, metrics["experiment.job_ms_tail"]
    assert math.isclose(metrics["experiment.job_ms_tail_pct"], 100.0 * 2 / 12)
    assert metrics["forgery.edit_px_per_region_px"] == 64.0
    assert metrics["forgery.edit_self_rank"] == 1
    assert math.isclose(metrics["forgery.edit_self_share"], 3.0 / sum(job_s))
    assert math.isclose(metrics["experiment.worker_busy_frac"], 1.0)
    few = {k: v for k, (v, _) in spans.layer_metrics([_summary([1.0] * 10)]).items()}
    assert few["experiment.job_ms_tail"] == 0.0 and few["experiment.job_ms_tail_pct"] == 0.0


def smoke(spec: dict) -> None:
    root = HERE.parent
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"], "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--size", str(SMOKE_SIZE)]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload["name"], trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            if trace and workload["name"] == "blur-knownh":
                sysid = {k: m["value"] for k, m in result["metrics"].items() if k.startswith("sysid.")}
                assert all(v == 0 for v in sysid.values()), sysid
            print(f"smoke ok: {workload['name']} trace={trace}")


def main() -> int:
    check_self_times()
    check_layer_arithmetic()
    print("span arithmetic ok")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    smoke(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
