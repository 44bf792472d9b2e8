"""Metric names, units and how each is derived.

End-to-end metrics come from the untraced phase; per-layer metrics from the
traced phase (``--trace 1``).  A per-layer metric of a layer that a workload
does not exercise reads 0, e.g. ``maxent.*`` on ``mc-serial``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from workloads import FAIL_CAUSES, OK, POOL, TRACED

#: name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_s_p50", "s", "lower", 0.25),
    ("op_s_tail", "s", "lower", 0.25),
    ("ok_frac", "frac", "higher", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

ESTIMATORS = ("DI", "TC", "DC", "SS", "TC2", "DC2", "TC3", "DC3", "TC6")
KERNEL_TIMINGS = tuple(
    f"kernels.{fn}_s.{cls}.T{T}"
    for fn, classes in (("factor", ("closed", "series", "dense")),
                        ("build", ("closed", "series", "dense")),
                        ("inverse", ("closed", "series")))
    for cls in classes for T in (50, 200))

#: name, unit, better
PER_LAYER = (
    ("simulation.pool_ops_per_s", "1/s", "higher"),
    ("simulation.pool_idle_frac", "frac", "lower"),
    ("simulation.fit_inflation", "ratio", "lower"),
    ("simulation.datagen_s", "s", "lower"),
    ("simulation.worker_blas_threads.numpy", "count", "lower"),
    ("simulation.worker_blas_threads.scipy", "count", "lower"),
    *((f"estimator.fit_s.{e}", "s", "lower") for e in ESTIMATORS),
    ("estimator.evals_per_fit", "count", "lower"),
    ("estimator.failed_evals_per_fit", "count", "lower"),
    ("estimator.restarts_per_fit", "count", "lower"),
    ("estimator.nfev_per_fit", "count", "lower"),
    ("estimator.qr_nll_s", "s", "lower"),
    ("estimator.airf_median", "%", "higher"),
    ("kernels.factor_builds_per_fit", "count", "lower"),
    ("kernels.factor_hit_ratio", "frac", "higher"),
    ("kernels.share_of_fit", "frac", "lower"),
    *((name, "s", "lower") for name in KERNEL_TIMINGS),
    ("kernels.leading_variance_s", "s", "lower"),
    *((f"kernels.fail.{c}", "frac", "lower") for c in FAIL_CAUSES),
    ("maxent.completion_s", "s", "lower"),
    ("maxent.one_step_calls_per_completion", "count", "lower"),
    ("maxent.feasibility_s", "s", "lower"),
    ("maxent.reject_s", "s", "lower"),
    ("spectral.stationary_s", "s", "lower"),
    ("spectral.psd_s", "s", "lower"),
    ("spectral.kernel_share", "frac", "lower"),
    ("trace.overhead_ops_per_s", "1/s", "higher"),
    ("trace.absent_wrappers", "count", "lower"),
    ("bench.tail_pct", "%", "higher"),
)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def latency(ops):
    """Median and tail of the ok ops' times, and the tail's percentile.
    The tail is the highest percentile with at least ten samples above it,
    i.e. the 11th largest time; with fewer than 11 samples it falls back to
    the median."""
    ok = sorted(op.seconds for op in ops if op.outcome == OK)
    n = len(ok)
    if n == 0:
        return 0.0, 0.0, 0.0
    k = n - 11 if n >= 11 else (n - 1) // 2
    return _median(ok), ok[k], 100.0 * (k + 1) / n


def unit_latency(units):
    """:func:`latency` of each unit, then the median over units.  Every unit
    covers the workload's whole input set, and a burst of load from outside
    the benchmark slows the units it overlaps, not the result."""
    per_unit = [latency(ops) for ops in units]
    return tuple(_median([lat[i] for lat in per_unit]) for i in range(3))


def ops_per_s(units, walls) -> float:
    """Median over units of ok ops per second of the unit's timed wall."""
    return _median([sum(op.outcome == OK for op in ops) / wall
                    for ops, wall in zip(units, walls)])


def end_to_end(units, walls, setup_s, peak_rss_mb) -> dict:
    ops = [op for unit in units for op in unit]
    p50, tail, _ = unit_latency(units)
    n_ok = sum(op.outcome == OK for op in ops)
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(units, walls),
        "op_s_p50": p50,
        "op_s_tail": tail,
        "ok_frac": n_ok / len(ops) if ops else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def _ancestors(spans, root_name):
    """For each span, the index of its nearest ancestor-or-self called
    ``root_name`` (-1 if none).  Parents precede children in the list."""
    owner = [-1] * len(spans)
    for i, s in enumerate(spans):
        if s is None:
            continue
        if s.name == root_name:
            owner[i] = i
        elif s.parent >= 0:
            owner[i] = owner[s.parent]
    return owner


def per_layer(wl, spans, errors, units, walls, untraced_ops_per_s, absent, env) -> dict:
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    ops = [op for unit in units for op in unit]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        if s is not None:
            by_name[s.name].append(i)

    def ok_seconds(name):
        return [spans[i].seconds for i in by_name[name] if spans[i].error is None]

    # simulation / estimator: fit times and the pool phase come from the rows
    if wl.name == "mc-serial":
        rows = [r for r in wl.rows(TRACED) if r.error is None]
        for e in ESTIMATORS:
            m[f"estimator.fit_s.{e}"] = _median([r.seconds for r in rows if r.estimator == e])
        m["estimator.airf_median"] = _median([r.airf for r in rows])
        pooled = [r for r in wl.rows(POOL) if r.error is None]
        if pooled and wl.pool_wall > 0:
            busy = sum(r.seconds for r in pooled)
            m["simulation.pool_idle_frac"] = 1.0 - busy / (wl.pool_workers * wl.pool_wall)
            m["simulation.pool_ops_per_s"] = len(pooled) / wl.pool_wall
            m["simulation.fit_inflation"] = wl.fit_inflation()
    for lib in ("numpy", "scipy"):
        m[f"simulation.worker_blas_threads.{lib}"] = float(
            env["blas_threads_worker"].get(lib) or 0)
    runs = len(by_name["simulation.datagen.system"])
    if runs:
        m["simulation.datagen_s"] = sum(
            spans[i].seconds for name in ("simulation.datagen.system",
                                          "simulation.datagen.input",
                                          "simulation.datagen.output")
            for i in by_name[name]) / runs

    fit_of = _ancestors(spans, "estimator.fit")
    fits = by_name["estimator.fit"]
    if fits:
        n = len(fits)

        def in_fit(name):
            return [i for i in by_name[name] if fit_of[i] >= 0]

        evals = in_fit("estimator.factor")
        failed = [i for name in ("estimator.factor", "estimator.qr_nll",
                                 "kernels.leading_variance")
                  for i in in_fit(name) if spans[i].error is not None]
        builds = in_fit("kernels.factor")
        m["estimator.evals_per_fit"] = len(evals) / n
        m["estimator.failed_evals_per_fit"] = len(failed) / n
        restarts, nfev, last_x = 0, 0, {}
        for i in in_fit("estimator.minimize"):
            tag = spans[i].tag
            if tag is None:
                continue
            x0, x1, k = tag
            prev = last_x.get(fit_of[i])
            if prev is not None and np.allclose(x0, prev, rtol=1e-6, atol=1e-9):
                restarts += 1
            last_x[fit_of[i]] = x1
            nfev += k
        m["estimator.restarts_per_fit"] = restarts / n
        m["estimator.nfev_per_fit"] = nfev / n
        m["estimator.qr_nll_s"] = _median(ok_seconds("estimator.qr_nll"))
        m["kernels.factor_builds_per_fit"] = len(builds) / n
        if evals:
            m["kernels.factor_hit_ratio"] = 1.0 - len(builds) / len(evals)
        kernel_time = sum(spans[i].seconds for name in ("estimator.factor",
                                                        "kernels.leading_variance")
                          for i in in_fit(name))
        m["kernels.share_of_fit"] = kernel_time / sum(spans[i].seconds for i in fits)
        for i in evals:
            err = spans[i].error
            if err is not None:
                cause = "refused" if issubclass(err, errors.StableKernError) else "raw"
                m[f"kernels.fail.{cause}"] += 1.0 / len(evals)

    # kernels: timings by (function, class, T), failures by cause
    for fn, span_name in (("factor", "kernels.factor"), ("build", "kernels.build"),
                          ("inverse", "kernels.inverse")):
        groups = defaultdict(list)
        for i in by_name[span_name]:
            s = spans[i]
            if s.error is None and s.tag is not None:
                groups[s.tag].append(s.seconds)
        for (cls, T), secs in groups.items():
            name = f"kernels.{fn}_s.{cls}.T{T}"
            if name in m:
                m[name] = _median(secs)
    m["kernels.leading_variance_s"] = _median(ok_seconds("kernels.leading_variance"))
    if wl.name == "kernel-sweep":
        for cause in FAIL_CAUSES:
            m[f"kernels.fail.{cause}"] = sum(op.outcome == cause for op in ops) / len(ops)

    # maxent
    completions = [i for i in by_name["maxent.completion"] if spans[i].error is None]
    m["maxent.completion_s"] = _median([spans[i].seconds for i in completions])
    if completions:
        comp_of = _ancestors(spans, "maxent.completion")
        ok_comp = set(completions)
        calls = sum(comp_of[i] in ok_comp for i in by_name["maxent.one_step"])
        m["maxent.one_step_calls_per_completion"] = calls / len(completions)
    m["maxent.feasibility_s"] = _median(ok_seconds("maxent.feasibility"))
    m["maxent.reject_s"] = _median(
        [spans[i].seconds for i in by_name["maxent.completion"]
         if spans[i].error is not None
         and issubclass(spans[i].error, errors.InfeasibleExtensionError)])

    # spectral
    stationary = [i for i in by_name["spectral.stationary"] if spans[i].error is None]
    m["spectral.stationary_s"] = _median([spans[i].seconds for i in stationary])
    m["spectral.psd_s"] = _median(ok_seconds("spectral.psd"))
    if stationary:
        ok_stat = set(stationary)
        inner = sum(spans[i].seconds for i in by_name["kernels.build"]
                    if spans[i].parent in ok_stat)
        m["spectral.kernel_share"] = inner / sum(spans[i].seconds for i in stationary)

    m["trace.overhead_ops_per_s"] = ops_per_s(units, walls) - untraced_ops_per_s
    m["trace.absent_wrappers"] = float(len(absent))
    return m
