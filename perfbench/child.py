"""One measured experiment call in a fresh interpreter; prints a JSON record.

    python3 perfbench/child.py CONFIG [--spans PATH]

The record holds the set-up time (``import sarfx`` plus
``ExperimentConfig.from_json``, the fixed cost of every ``sarfx experiment``
invocation), the wall time of one ``run_experiment`` call, and the process's
peak resident set. With ``--spans`` the layers are traced and the spans
written to PATH. The parent puts the package's ``src`` directory on
PYTHONPATH.
"""

import json
import os
import resource
import sys
import time


def main(argv) -> int:
    config_path = argv[0]
    spans_path = argv[argv.index("--spans") + 1] if "--spans" in argv else None
    start = time.perf_counter()
    import sarfx

    if not os.path.realpath(sarfx.__file__).startswith(os.path.realpath(os.environ["PYTHONPATH"]) + os.sep):
        print(f"imported sarfx from {sarfx.__file__}, not from the checkout", file=sys.stderr)
        return 3
    config = sarfx.ExperimentConfig.from_json(config_path)
    setup_s = time.perf_counter() - start
    from sarfx.experiment import worker_count

    tracer = None
    if spans_path is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    result = sarfx.run_experiment(config)
    wall_s = time.perf_counter() - start
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "workers": worker_count(),
        "rows": result.rows,
        "errors": result.errors,
    }
    if tracer is not None:
        tracer.write_spans(spans_path)
        record["trace"] = spans.summarize(tracer, record["workers"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
