"""Runs one workload in this process and computes its metrics.

The untraced run measures the end-to-end metrics with tracing off.  The traced
run records spans and counts around every call the benchmark makes; it runs
the named workload for half as many passes and then one pass of every other
workload, so that each per-layer metric has a value in every traced run: a
metric is taken from the named workload when that workload exercises the
layer, and otherwise from the first workload in ``ORDER`` that does.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter

import numpy as np
import scipy

from tracing import OFF, Tracer
from workloads import WORKLOADS

ORDER = ("ball", "scaling", "oracle", "trajectory")
# At least ten samples beyond the 90th percentile.
MIN_OPS = 110
MIN_PASSES = 2
# Share of passes left out at each end of the throughput's trimmed mean.
TRIM = 0.1


def op_count(cls, size: int, seconds: float) -> int:
    """A fixed number of whole passes: the run length in seconds times the
    workload's pass rate measured on the reference machine (see README), so
    every run with the same --seconds does the same work in the same order."""
    passes = max(MIN_PASSES, round(seconds * cls.passes_per_second), math.ceil(MIN_OPS / size))
    return passes * size


def build(cls, seed: int, tmp: str, tr=OFF):
    """One set-up: population, files, fields, validation and a warm-up op."""
    wl = cls(seed, tmp, tr)
    wl.op(0, tr)
    return wl


def timed_build(cls, seed: int, tmp: str):
    gc.collect()
    start = time.perf_counter()
    wl = build(cls, seed, tmp)
    return wl, time.perf_counter() - start


def op_loop(wl, n_ops: int, tr=OFF, after_pass=None) -> dict:
    """Run ``n_ops`` ops over the population in order, timing each op and
    checking its output outside the timed region; ``after_pass(p)`` runs
    after pass p."""
    latencies = []
    failed = 0
    reasons = Counter()
    warned = 0
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for k in range(n_ops):
            i = k % wl.size
            tr.op = k
            before = Counter(tr.counts) if tr.enabled else None
            seen = len(caught)
            start = time.perf_counter()
            try:
                with tr.span("op", item=i):
                    out = wl.op(i, tr)
                reason = None
            except Exception:  # a raising op is a failed op, not a crashed run
                reason = traceback.format_exc(limit=3).strip().splitlines()[-1]
            latencies.append(time.perf_counter() - start)
            runtime_warnings = sum(
                issubclass(w.category, RuntimeWarning) for w in caught[seen:]
            )
            warned += len(caught) - seen
            if tr.enabled:
                tr.count("runtime_warnings", runtime_warnings)
                tr.op_counts.update(tr.counts - before)
                if reason is None:
                    wl.constituents(i, out, tr)
            if reason is None:
                try:
                    reason = wl.check(i, out)
                except Exception:
                    reason = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            if reason is not None:
                failed += 1
                reasons[reason] += 1
            if after_pass and (k + 1) % wl.size == 0:
                after_pass((k + 1) // wl.size - 1)
        tr.op = -1
    return {
        "latencies": latencies,
        "attempted": n_ops,
        "failed": failed,
        "failure_reasons": dict(reasons.most_common(5)),
        "warnings": warned,
        "stderr_notices": getattr(wl, "notices", 0),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trimmed_mean(values) -> float:
    """Mean of ``values`` without the lowest and highest ``TRIM`` of them."""
    x = np.sort(np.asarray(values, dtype=float))
    k = int(len(x) * TRIM)
    return float(x[k:len(x) - k].mean())


def end_to_end(setup_samples, stats, size: int) -> dict:
    """Throughput is that of the average pass over the population, less the
    fastest and slowest tenth of passes: a burst of host noise in a few
    passes does not move it, and unlike a median it does not jump when a
    run's share of slower stretches of the host crosses one half.  Latency
    percentiles are over every op of the run."""
    lat = np.array(stats["latencies"])
    pass_seconds = lat.reshape(-1, size).sum(axis=1)
    done_share = 1.0 - stats["failed"] / stats["attempted"]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (size * done_share / trimmed_mean(pass_seconds), "1/s"),
        "op_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms"),
        "op_p90_ms": (float(np.percentile(lat, 90)) * 1e3, "ms"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def run_untraced(name: str, seed: int, seconds: float, tmp: str) -> dict:
    """End-to-end metrics.  The first set-up build is the one the ops use; the
    others are spread evenly between passes, so the set-up samples see the
    same stretch of machine time as the ops rather than only its start."""
    cls = WORKLOADS[name]
    wl, first = timed_build(cls, seed, tmp)
    setup_samples = [first]
    wl.prepare()
    n_ops = op_count(cls, wl.size, seconds)
    passes = n_ops // wl.size
    rebuilds = Counter(
        max(0, (k + 1) * passes // cls.setup_builds - 1) for k in range(cls.setup_builds - 1)
    )

    def after_pass(p):
        for _ in range(rebuilds[p]):
            setup_samples.append(timed_build(cls, seed, tmp)[1])

    stats = op_loop(wl, n_ops, after_pass=after_pass)
    return {
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": end_to_end(setup_samples, stats, wl.size),
        "detail": {"setup_samples_s": setup_samples, **{k: v for k, v in stats.items() if k != "latencies"}},
    }


# -- per-layer metrics -------------------------------------------------------


def _us(x):
    return None if x is None else x * 1e6


def _per_op(tr, n_ops, *names, scale=1e3):
    totals = [tr.total(nm) for nm in names]
    if all(t is None for t in totals):
        return None
    return sum(t for t in totals if t is not None) / n_ops * scale


def _ball_self_ms(tr, n_ops):
    parts = ("core.corner_model_from_json", "apps.preset", "core.require_valid", "bderiv.b_evaluate")
    by_op = {}
    for s in tr.spans:
        if s.op < 0:
            continue  # set-up and its warm-up op
        main, sub = by_op.get(s.op, (None, 0.0))
        if s.name == "cli.main":
            main = s.seconds
        elif s.name in parts:
            sub += s.seconds
        by_op[s.op] = (main, sub)
    selfs = [main - sub for main, sub in by_op.values() if main is not None]
    return statistics.median(selfs) * 1e3 if selfs else None


def _lazy_eval_us(tr, n):
    return _us(tr.median_per_call("bderiv.b_evaluate", n=n, lazy=True))


def _cost_slope(tr, n_ops):
    times = [_lazy_eval_us(tr, n) for n in (8, 16, 32)]
    if None in times:
        return None
    return float(np.polyfit(np.log([8, 16, 32]), np.log(times), 1)[0])


def _gamma_calls_per_eval(tr, n_ops):
    evals = len(tr.select("bderiv.b_evaluate", n=32, lazy=True))
    return tr.op_counts["gamma_calls.n32"] / evals if evals else None


def _gamma_us(tr, n_ops):
    calls = tr.op_counts["gamma_calls.n32"]
    return tr.op_counts["gamma_ns.n32"] / calls * 1e-3 if calls else None


def _validate_setup_s(tr, n_ops):
    return tr.total("core.require_valid", setup=True, lazy=True)


def _rk4_step_us(tr, n_ops):
    spans = tr.select("flow.integrate", kind="linear")
    steps = sum(s.tags["field_values"] for s in spans) / 4.0
    return sum(s.seconds for s in spans) / steps * 1e6 if steps else None


def _integration_count_per_op(key, scale=1.0):
    """A count per op, on workloads that integrate trajectories (0 is a value)."""
    def metric(tr, n_ops):
        return tr.op_counts[key] * scale / n_ops if tr.select("flow.integrate") else None
    return metric


def _median(name, unit_scale, setup=False, **tags):
    def metric(tr, n_ops):
        value = tr.median_per_call(name, setup, **tags)
        return None if value is None else value * unit_scale
    return metric


# name -> (unit, metric(tracer, ops of that tracer) -> value or None)
PER_LAYER = {
    "core.model_load_ms": ("ms", _median("core.corner_model_from_json", 1e3)),
    "core.validate_ms": ("ms", _median("core.require_valid", 1e3, lazy=None)),
    "core.validate_setup_s": ("s", _validate_setup_s),
    "core.gamma_calls_per_eval": ("count", _gamma_calls_per_eval),
    "core.gamma_us": ("us", _gamma_us),
    "apps.preset_ms": ("ms", _median("apps.preset", 1e3)),
    "bderiv.eval_us.n2": ("us", _median("bderiv.b_evaluate", 1e6, n=2, lazy=None)),
    "bderiv.eval_us.n4": ("us", _median("bderiv.b_evaluate", 1e6, n=4, lazy=None)),
    "bderiv.eval_us.n8": ("us", _median("bderiv.b_evaluate", 1e6, n=8, lazy=None)),
    "bderiv.eval_us.lazy_n8": ("us", lambda tr, n_ops: _lazy_eval_us(tr, 8)),
    "bderiv.eval_us.lazy_n16": ("us", lambda tr, n_ops: _lazy_eval_us(tr, 16)),
    "bderiv.eval_us.lazy_n32": ("us", lambda tr, n_ops: _lazy_eval_us(tr, 32)),
    "bderiv.eval_ms_per_op": ("ms", lambda tr, n_ops: _per_op(tr, n_ops, "bderiv.b_evaluate")),
    "bderiv.cost_slope": ("1", _cost_slope),
    "bderiv.saltation_matrix_us": ("us", _median("bderiv.saltation_matrix", 1e6)),
    "bderiv.triangulation_ms": ("ms", _median("bderiv.build_triangulation", 1e3)),
    "bderiv.barycentric_piece_us": ("us", _median("bderiv.barycentric_piece", 1e6)),
    "sampled.sampled_flow_us": ("us", _median("sampled.sampled_flow", 1e6)),
    "sampled.time_to_impact_us": ("us", _median("sampled.time_to_impact_sampled", 1e6)),
    "sampled.ms_per_op": ("ms", lambda tr, n_ops: _per_op(
        tr, n_ops, "sampled.sampled_flow", "sampled.time_to_impact_sampled")),
    "oracle.safe_direction_scale_us": ("us", _median("oracle.safe_direction_scale", 1e6)),
    "oracle.random_model_ms": ("ms", _median("oracle.random_corner_model", 1e3, setup=True)),
    "oracle.fd_quotients_ms": ("ms", _median("oracle.finite_difference_flow", 1e3, kind="linear")),
    "flow.integrate_ms": ("ms", _median("flow.integrate", 1e3, kind="linear")),
    "flow.rk4_step_us": ("us", _rk4_step_us),
    "flow.rk4_steps_per_op": ("count", _integration_count_per_op("field_values", 0.25)),
    "flow.bderivative_build_ms": ("ms", _median("flow.flow_bderivative", 1e3, kind="linear")),
    "flow.bderivative_apply_us": ("us", _median("flow.bderivative_apply", 1e6, kind="linear")),
    "flow.near_simultaneous_warnings_per_op": ("count", _integration_count_per_op("runtime_warnings")),
    "apps.biped_integrate_ms": ("ms", _median("flow.integrate", 1e3, kind="biped")),
    "apps.biped_bderivative_build_ms": ("ms", _median("flow.flow_bderivative", 1e3, kind="biped")),
    "cli.ball_self_ms": ("ms", _ball_self_ms),
    "trace.op_p50_ms": ("ms", _median("op", 1e3)),
}


def run_traced(name: str, seed: int, seconds: float, tmp: str, dump_dir: str | None) -> dict:
    runs = {}
    attempted = failed = 0
    reasons = {}
    for wname in (name,) + tuple(w for w in ORDER if w != name):
        cls = WORKLOADS[wname]
        tr = Tracer()
        with tr.span("setup"):
            wl = build(cls, seed, tmp, tr)
        wl.prepare()
        # half the untraced run's passes: the replayed constituents double
        # the cost of an op, and a median needs fewer samples than a tail
        n_ops = op_count(cls, wl.size, seconds / 2) if wname == name else wl.size
        stats = op_loop(wl, n_ops, tr)
        attempted += stats["attempted"]
        failed += stats["failed"]
        reasons.update({f"{wname}: {r}": c for r, c in stats["failure_reasons"].items()})
        runs[wname] = (tr, n_ops)
        if dump_dir:
            tr.dump(os.path.join(dump_dir, f"spans-{name}-seed{seed}-{wname}.jsonl.gz"))
    metrics = {}
    for metric, (unit, fn) in PER_LAYER.items():
        value = None
        for wname in runs:
            value = fn(*runs[wname])
            if value is not None:
                break
        if value is None:
            raise RuntimeError(f"no workload exercises per-layer metric {metric}")
        metrics[metric] = (value, unit)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {"failure_reasons": reasons, "source": {w: runs[w][1] for w in runs}},
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
        "executable": sys.executable,
    }
