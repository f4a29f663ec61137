"""Traced run: per-layer metrics from spans and from probes of single layers.

Passes alternate traced and untraced, starting traced so that the first
``solve`` of the process shows its memory growth. Stage times come from the
untraced passes' stopwatch, so the span wrappers' cost does not enter them;
self time per layer comes from the traced passes. The extra probes run only
here, after the passes, so they never inflate the end-to-end numbers.
"""

from __future__ import annotations

import math
import shutil
import statistics
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer

# Layers whose public calls every workload's measured pipeline makes; their
# self times plus trace.unattributed_s add up to trace.pipeline_s.
SELF_TIME_LAYERS = ("dynamics", "dictionary", "regression", "lie", "control", "symexpr")
PROBE_MIN_S = 0.2  # repeat a probe until it has run this long (and at least 3 times)
PROBE_MAX_REPS = 200
EVALUATE_MAX_STATES = 2000  # states per expression in the evaluate probe


def repeat_median(fn) -> float:
    """Median wall time of ``fn()`` over enough repetitions to fill PROBE_MIN_S."""
    times = []
    start = perf_counter()
    while len(times) < 3 or (perf_counter() - start < PROBE_MIN_S and len(times) < PROBE_MAX_REPS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def med(values) -> float:
    return statistics.median(list(values))


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def traced_run(wl, seconds: float, work_dir: Path, trace_path: Path, env: dict):
    s = wl.s
    tracer = Tracer()
    traced, untraced, errors = [], [], []
    start = perf_counter()
    i = 0
    while i < 2 or perf_counter() - start < seconds:
        pass_id = f"p{i}"
        try:
            if i % 2 == 0:
                tracer.install(s)
                try:
                    traced.append((pass_id, workloads.run_pass(wl, work_dir, tracer, pass_id)))
                finally:
                    tracer.uninstall()
            else:
                untraced.append(workloads.run_pass(wl, work_dir))
        except Exception as exc:  # a pass that raises counts as failed; keep measuring
            errors.append(f"pass {i}: {type(exc).__name__}: {exc}")
        i += 1
    if not traced or not untraced:
        return [r for _, r in traced] + untraced, errors, {}, []

    last = untraced[-1].stages
    m = wl.m
    ds, model, chain = last.ds, last.model, last.chain
    metrics: dict[str, tuple[float, str]] = {}

    # dynamics
    integrate_s = med(r.stages.integrate_s for r in untraced)
    metrics["dynamics.integrate_s"] = (integrate_s, "s")
    metrics["dynamics.integrate_steps_per_s"] = ((m - 1) / integrate_s, "1/s")
    metrics["dynamics.closed_loop_s"] = (med(r.stages.closed_loop_s for r in untraced), "s")

    # dictionary
    build_s = med(r.stages.build_s for r in untraced)
    metrics["dictionary.build_s"] = (build_s, "s")
    metrics["dictionary.entries_per_s"] = (m * (ds.p_x + ds.p_u + ds.p_y) / build_s, "1/s")

    # regression
    solve_s = med(r.stages.solve_s for r in untraced)
    init_cfg = s.RegressionConfig(lam=workloads.LAMBDA, relative_degree=wl.spec.relative_degree,
                                  constraint_mode="none")
    init_s = repeat_median(lambda: s.solve(ds, last.data, init_cfg))
    metrics["regression.solve_s"] = (solve_s, "s")
    metrics["regression.init_s"] = (init_s, "s")
    metrics["regression.alternation_s"] = (solve_s - init_s, "s")
    metrics["regression.solve_rss_mb"] = (
        max(sp["rss_growth_mb"] for sp in tracer.spans if sp["name"] == "regression.solve"), "MB")
    sizes, solve_times = [], []
    for k in (m // 4, m // 2):
        data_k = s.integrate(wl.plant, list(wl.spec.x0), wl.excitation, workloads.DT, k - 1)
        ds_k = s.build_dictionaries(wl.library, data_k)
        sizes.append(k)
        solve_times.append(repeat_median(lambda: s.solve(ds_k, data_k, wl.regression)))
    metrics["regression.scaling_exponent"] = (loglog_slope(sizes + [m], solve_times + [solve_s]), "1")
    metrics["regression.alt_iterations"] = (model.diagnostics.alt_iterations, "count")
    metrics["regression.stls_iterations"] = (model.diagnostics.stls_iterations, "count")
    nonzero = sum(int((a != 0).sum()) for a in (model.xi_tilde, model.xi_hat, model.zeta))
    metrics["regression.active_fraction"] = (
        nonzero / (model.xi_tilde.size + model.xi_hat.size + model.zeta.size), "1")

    # lie and control
    metrics["lie.relative_degree_s"] = (med(r.stages.relative_degree_s for r in untraced), "s")
    metrics["lie.chain_terms"] = (
        sum(len(e.terms) for e in chain.lf_powers + chain.lg_mixed), "count")
    metrics["control.synthesize_s"] = (med(r.stages.synthesize_s for r in untraced), "s")
    track = last.loops[1]
    ref = wl.scenarios[1][3]
    points = list(zip(track.X, track.times))
    metrics["control.control_value_us"] = (
        1e6 * repeat_median(lambda: [last.ctrl.control_value(x, ref, t) for x, t in points])
        / len(points), "us")

    # symexpr
    exprs = list(model.f) + list(model.g) + [model.c]
    states = last.data.X[:EVALUATE_MAX_STATES]
    metrics["symexpr.evaluate_us"] = (
        1e6 * repeat_median(lambda: [e.evaluate(x) for e in exprs for x in states])
        / (len(exprs) * len(states)), "us")
    metrics["symexpr.evaluate_calls"] = (
        med(tracer.calls[(pid + ".pipeline", "symexpr.Expression.evaluate")] for pid, _ in traced),
        "count")

    # data: the CSV hand-off between CLI stages, on this workload's dataset
    csv_path = work_dir / "dataset.csv"
    metrics["data.save_csv_s"] = (repeat_median(lambda: s.save_csv(last.data, csv_path)), "s")
    metrics["data.load_csv_s"] = (repeat_median(lambda: s.load_csv(csv_path)), "s")
    loaded = s.load_csv(csv_path)
    for name in ("times", "X", "U", "Y", "Xdot"):
        if not (getattr(loaded, name) == getattr(last.data, name)).all():
            untraced[-1].failures.append(f"CSV round trip changed {name}")

    # cli: what `sparsefl pipeline` costs beyond the library stages
    if wl.spec.cli:
        cli_s = med(r.pipeline_s for r in untraced)
        library_s = med(r.stages.total_s for r in untraced)
    else:
        out_dir = work_dir / "cli"
        config_path = workloads.write_config(wl, work_dir)
        try:
            t0 = perf_counter()
            workloads.run_cli_pipeline(config_path, out_dir)
            cli_s = perf_counter() - t0
            untraced[-1].failures.extend(workloads.artifact_failures(wl, out_dir))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        library_s = med(r.pipeline_s for r in untraced)
    metrics["cli.overhead_s"] = (cli_s - library_s, "s")

    # self time per layer over the traced pipelines; the remainder is unattributed
    roots = tracer.roots("bench.pipeline")
    pipeline_s = statistics.fmean(sp["end"] - sp["start"] for sp in roots)
    layer_sum = 0.0
    for layer in SELF_TIME_LAYERS:
        value = statistics.fmean(tracer.layer_self_s(sp["pass"]).get(layer, 0.0) for sp in roots)
        metrics[f"{layer}.self_s"] = (value, "s")
        layer_sum += value
    metrics["trace.pipeline_s"] = (pipeline_s, "s")
    metrics["trace.unattributed_s"] = (pipeline_s - layer_sum, "s")
    metrics["trace.overhead_s"] = (
        med(r.pipeline_s for _, r in traced) - med(r.pipeline_s for r in untraced), "s")

    all_layers = sorted({layer for (_, layer) in tracer.self_s})
    notes = [f"passes: {len(traced)} traced, {len(untraced)} untraced; spans in {trace_path}",
             "self time per layer, mean over traced pipelines "
             f"(sum = {pipeline_s:.6g} s = trace.pipeline_s):"]
    for layer in all_layers:
        value = statistics.fmean(tracer.layer_self_s(sp["pass"]).get(layer, 0.0) for sp in roots)
        notes.append(f"  {layer:12s} {value:12.6g} s  {100 * value / pipeline_s:6.2f}%")
    tracer.write(trace_path, {"workload": wl.name, "seed": wl.seed, "m": m, "env": env})
    return [r for _, r in traced] + untraced, errors, metrics, notes
