"""Span tracer that times the package's layers from outside.

``install`` rebinds each wrapped function in every ``sarfx`` module that
holds it, because modules import by name (``sarfx.attack`` calls its own
``estimate_transfer_function`` binding, ``sarfx.experiment`` its own
``random_splice``). A span records its name, start, end, parent span and job
id; spans stay in memory and are written out when the call ends. Each wrapped
call's returned arrays are hashed, keyed by job and span name, so a change to
one layer can show bit-identity at that layer's boundary. Hashing is recorded
as a ``trace.digest`` span under the caller, so it never counts toward the
caller's self time.

The experiment's private ``_run_job`` is wrapped too: it is the only place a
job's boundaries and id are visible from outside.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np

CALL_SPAN = "experiment.run_experiment"
JOB_SPAN = "experiment._run_job"
DIGEST_SPAN = "trace.digest"

# (module, function); the span is named "<module>.<function>".
WRAPPED = [
    ("raster", "read_raster"),
    ("raster", "write_raster"),
    ("forgery", "random_splice"),
    ("forgery", "edit_donor"),
    ("forgery", "splice"),
    ("sysid", "estimate_transfer_function"),
    ("sysid", "magnitude_spectrum"),
    ("sysid", "estimate_direct"),
    ("sysid", "fit_gaussian"),
    ("sysid", "fit_raised_cosine"),
    ("spectral", "smooth_spectrum"),
    ("spectral", "forward_dft"),
    ("spectral", "inverse_dft"),
    ("speckle", "generate_speckle"),
    ("speckle", "inject_speckle"),
    ("attack", "run_attack"),
    ("attack", "apply_system"),
    ("attack", "histogram_match"),
    ("metrics", "ssim"),
    ("metrics", "ms_ssim"),
    ("metrics", "enl"),
    ("metrics", "delta_enl"),
    ("metrics", "auc_roc"),
    ("experiment", "run_experiment"),
    ("experiment", "_run_job"),
]
# Counted, not spanned: the solver's time stays inside the fit that calls it.
SOLVER = ("leastsq", "least_squares")

# Span groups ranked by self time; both curve fits form one group.
GROUPS = {"sysid.fit_gaussian": "sysid.fit", "sysid.fit_raised_cosine": "sysid.fit"}


def _dft_bytes(out) -> int:
    # computed, not measured: one complex128 plane in and one out
    plane = out.values if hasattr(out, "values") else out.re
    return 2 * 16 * plane.size


NOTES = {
    "forgery.edit_donor": lambda args, out: {"px": 0 if out is args[0] else out.values.size},
    "forgery.random_splice": lambda args, out: {"region_px": out[2]["region_pixels"]},
    "raster.write_raster": lambda args, out: {"bytes": os.path.getsize(args[1])},
    "spectral.forward_dft": lambda args, out: {"bytes": _dft_bytes(out)},
    "spectral.inverse_dft": lambda args, out: {"bytes": _dft_bytes(out)},
}


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    attrs: dict = dataclasses.field(default_factory=dict)


def _feed(h, value) -> None:
    """Hash every array reachable from a returned value, plus its scalars."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            _feed(h, getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(repr(key).encode())
            _feed(h, value[key])
    else:
        h.update(repr(value).encode())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.digests: list[tuple] = []  # (job, span name, digest) in call order
        self.solver: list[tuple] = []  # (job, seconds, iterations)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._call_span: int | None = None
        self.edit_label = None  # set by install()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.job = [], None
        return local

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            span_id = next(self._ids)
            if name == JOB_SPAN:
                # pool threads start with an empty stack: parent is the call span
                parent = self._call_span
                item, edit = args[0], args[1]
                state.job = f"{item.id}/{self.edit_label(edit)}"
            else:
                parent = state.stack[-1] if state.stack else None
            if name == CALL_SPAN:
                self._call_span = span_id
            state.stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                state.stack.pop()
                span = Span(span_id, name, start, end, parent, state.job)
                self.spans.append(span)
                if name == JOB_SPAN:
                    state.job = None
            if note is not None:
                span.attrs.update(note(args, out))
            self._digest(span, out)
            return out

        return traced

    def wrap_solver(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.solver.append((self._state().job, time.perf_counter() - start, result.iterations))
            return result

        return counted

    def _digest(self, span: Span, out) -> None:
        start = time.perf_counter()
        h = hashlib.blake2b(digest_size=8)
        _feed(h, out)
        self.digests.append((span.job, span.name, h.hexdigest()))
        self.spans.append(
            Span(next(self._ids), DIGEST_SPAN, start, time.perf_counter(), span.parent, span.job)
        )

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")


def install(tracer: Tracer) -> None:
    """Rebind every wrapped function in each sarfx module that holds it."""
    import importlib
    import sys

    import sarfx  # noqa: F401  (loads every submodule)
    from sarfx.experiment import edit_label

    tracer.edit_label = edit_label
    targets = []
    for module, fn_name in WRAPPED:
        original = getattr(importlib.import_module(f"sarfx.{module}"), fn_name)
        targets.append((original, tracer.wrap(f"{module}.{fn_name}", original)))
    solver = getattr(importlib.import_module(f"sarfx.{SOLVER[0]}"), SOLVER[1])
    targets.append((solver, tracer.wrap_solver(solver)))
    modules = [m for name, m in sys.modules.items() if name == "sarfx" or name.startswith("sarfx.")]
    for original, wrapper in targets:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def _entry() -> dict:
    return {"count": 0, "total_s": 0.0, "self_s": 0.0, "attrs": defaultdict(int)}


def summarize(tracer: Tracer, workers: int) -> dict:
    """Per-call aggregates the parent merges across traced calls."""
    selfs = self_times(tracer.spans)
    by_name = defaultdict(_entry)
    for span in tracer.spans:
        entry = by_name[span.name]
        entry["count"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += selfs[span.id]
        for key, value in span.attrs.items():
            entry["attrs"][key] += value
    call = next(s for s in tracer.spans if s.name == CALL_SPAN)
    jobs = sorted((s for s in tracer.spans if s.name == JOB_SPAN), key=lambda s: s.start)
    return {
        "by_name": by_name,
        "solver": {
            "calls": len(tracer.solver),
            "seconds": sum(s for _, s, _ in tracer.solver),
            "iterations": sum(i for _, _, i in tracer.solver),
        },
        "job_s": [s.end - s.start for s in jobs],
        "pre_job_s": (jobs[0].start - call.start) if jobs else 0.0,
        "call_s": call.end - call.start,
        "workers": workers,
        "digests": tracer.digests,
    }


def layer_metrics(summaries: list[dict]) -> dict[str, tuple[float, str]]:
    """(value, unit) of each per-layer metric over the traced calls of one run.

    Times and byte counts are per job: the sum over all traced calls divided
    by the jobs they ran.
    """
    names = defaultdict(_entry)
    for summary in summaries:
        for name, entry in summary["by_name"].items():
            merged = names[name]
            merged["count"] += entry["count"]
            merged["total_s"] += entry["total_s"]
            merged["self_s"] += entry["self_s"]
            for key, value in entry["attrs"].items():
                merged["attrs"][key] += value
    job_s = sorted(s for summary in summaries for s in summary["job_s"])
    jobs = len(job_s)

    def ms(*span_names) -> float:
        return 1000.0 * sum(names[n]["total_s"] for n in span_names) / jobs

    def per_job(span_name) -> float:
        return names[span_name]["count"] / jobs

    def attr(span_name, key) -> int:
        return names[span_name]["attrs"].get(key, 0)

    group_self: dict[str, float] = {}
    for name, entry in names.items():
        if name != DIGEST_SPAN:
            group = GROUPS.get(name, name)
            group_self[group] = group_self.get(group, 0.0) + entry["self_s"]
    ranking = sorted(group_self, key=group_self.get, reverse=True)
    job_total_s = sum(job_s)

    def self_share(group) -> float:
        return group_self.get(group, 0.0) / job_total_s

    def rank(group) -> int:
        # 1 is the largest self time; 0 means the group never ran
        return ranking.index(group) + 1 if group in group_self else 0

    solver = {k: sum(s["solver"][k] for s in summaries) for k in ("calls", "seconds", "iterations")}
    region_px = attr("forgery.random_splice", "region_px")
    tail_rank = jobs - 10  # highest order statistic with at least 10 samples beyond it
    busy = job_total_s / sum(s["workers"] * s["call_s"] for s in summaries)
    return {
        "raster.read_ms": (ms("raster.read_raster"), "ms"),
        "raster.write_ms": (ms("raster.write_raster"), "ms"),
        "raster.bytes_written": (attr("raster.write_raster", "bytes") / jobs, "B"),
        "forgery.splice_ms": (ms("forgery.random_splice"), "ms"),
        "forgery.edit_ms": (ms("forgery.edit_donor"), "ms"),
        "forgery.edit_px_per_region_px": (attr("forgery.edit_donor", "px") / region_px if region_px else 0.0, "ratio"),
        "forgery.edit_self_share": (self_share("forgery.edit_donor"), "ratio"),
        "forgery.edit_self_rank": (rank("forgery.edit_donor"), "rank"),
        "sysid.estimate_ms": (ms("sysid.estimate_transfer_function"), "ms"),
        "sysid.estimates_per_job": (per_job("sysid.estimate_transfer_function"), "count"),
        "sysid.smooth_ms": (ms("spectral.smooth_spectrum"), "ms"),
        "sysid.direct_ms": (ms("sysid.estimate_direct"), "ms"),
        "sysid.fit_ms": (ms("sysid.fit_gaussian", "sysid.fit_raised_cosine"), "ms"),
        "sysid.fit_self_share": (self_share("sysid.fit"), "ratio"),
        "sysid.fit_self_rank": (rank("sysid.fit"), "rank"),
        "sysid.lm_iterations": (solver["iterations"] / solver["calls"] if solver["calls"] else 0.0, "count"),
        "sysid.lm_ms_per_iter": (1000.0 * solver["seconds"] / solver["iterations"] if solver["iterations"] else 0.0, "ms"),
        "spectral.dft_calls_per_job": (per_job("spectral.forward_dft") + per_job("spectral.inverse_dft"), "count"),
        "spectral.dft_ms": (ms("spectral.forward_dft", "spectral.inverse_dft"), "ms"),
        "spectral.dft_bytes": ((attr("spectral.forward_dft", "bytes") + attr("spectral.inverse_dft", "bytes")) / jobs, "B"),
        "speckle.generate_ms": (ms("speckle.generate_speckle"), "ms"),
        "speckle.inject_ms": (ms("speckle.inject_speckle"), "ms"),
        "attack.run_ms": (ms("attack.run_attack"), "ms"),
        "attack.self_ms": (1000.0 * names["attack.run_attack"]["self_s"] / jobs, "ms"),
        "attack.apply_system_ms": (ms("attack.apply_system"), "ms"),
        "attack.histogram_match_ms": (ms("attack.histogram_match"), "ms"),
        "metrics.ssim_ms": (ms("metrics.ssim"), "ms"),
        "metrics.ms_ssim_ms": (ms("metrics.ms_ssim"), "ms"),
        "metrics.enl_calls_per_job": (per_job("metrics.enl"), "count"),
        "metrics.auc_ms": (ms("metrics.auc_roc"), "ms"),
        "experiment.job_samples": (jobs, "count"),
        "experiment.job_ms_mean": (1000.0 * job_total_s / jobs, "ms"),
        "experiment.job_ms_p50": (1000.0 * float(np.percentile(job_s, 50, method="lower")), "ms"),
        "experiment.job_ms_tail": (1000.0 * job_s[tail_rank - 1] if tail_rank >= 1 else 0.0, "ms"),
        "experiment.job_ms_tail_pct": (100.0 * tail_rank / jobs if tail_rank >= 1 else 0.0, "pct"),
        "experiment.pre_job_s": (float(np.median([s["pre_job_s"] for s in summaries])), "s"),
        "experiment.workers": (summaries[0]["workers"], "count"),
        "experiment.worker_busy_frac": (busy, "ratio"),
        "trace.digest_ms": (ms(DIGEST_SPAN), "ms"),
    }


def self_time_table(summaries: list[dict]) -> list[tuple[str, float, int]]:
    """(span name, self ms per job, calls) sorted by self time, for the log."""
    totals = defaultdict(lambda: [0.0, 0])
    jobs = sum(len(s["job_s"]) for s in summaries)
    for summary in summaries:
        for name, entry in summary["by_name"].items():
            totals[name][0] += entry["self_s"]
            totals[name][1] += entry["count"]
    rows = [(name, 1000.0 * s / jobs, n) for name, (s, n) in totals.items()]
    return sorted(rows, key=lambda r: r[1], reverse=True)
