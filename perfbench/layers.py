"""Per-layer figures for the traced run.

Spans are installed at the module boundaries of gcsloc: on the names
``gcsloc.cli`` imports from algebra, cartan, dynamics and observables, on
``gcsloc.cli.main`` itself, and on the public names of the ``gcsloc``
package that the benchmark calls.  Layer figures come from a fixed traced
sweep (so sample counts and work counts repeat exactly) and from untraced
microbenchmarks of the step, record and ensemble kernels.
"""

from __future__ import annotations

import inspect
import statistics
import time

import numpy as np

import gcsloc
import gcsloc.cli

from tracing import self_times, spans_named

LAYERS = {
    "algebra": ("build_su2_irrep", "build_sun_fundamental"),
    "cartan": (
        "cartan_decompose", "highest_weight_state", "generate_gcs", "align_expectation_to_cartan",
    ),
    "observables": (
        "uncertainty_bounds", "localization_drift", "covariance_trace_norm", "cartan_split_sums",
        "root_pair_closed_form",
    ),
    "dynamics": (
        "simulate_trajectory", "ensemble_average", "ensemble_observables", "haar_state", "haar_states",
        "scan_states", "lindblad_evolve", "lindblad_expm_evolve", "validate_density", "snlse_step",
    ),
}

STEP_ALGEBRAS = {"su2-4": "su2:two_j=4", "su2-8": "su2:two_j=8", "su6": "suN:n=6"}
RK4_DIMS = {9: "su2-8", 6: "su6"}


def _binder(fn, count):
    """counter(args, kwargs) for fn: count(bound_arguments) -> dict."""
    sig = inspect.signature(fn)

    def counter(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return count(bound.arguments)

    return counter


def _traj_counts(a):
    n = a.get("n_traj", 1)
    steps = a["cfg"].steps
    return {"steps": steps * n, "records": (steps // a["record_stride"] + 1) * n}


COUNTERS = {
    "simulate_trajectory": _traj_counts,
    "ensemble_average": _traj_counts,
    "ensemble_observables": _traj_counts,
    "lindblad_evolve": lambda a: {"rk4_steps": a["steps"], "dim": a["rep"].dim_hilbert},
    "lindblad_expm_evolve": lambda a: {"expm_calls": len(a["times"])},
    "scan_states": lambda a: {"scan_states": a["n"]},
    "haar_states": lambda a: {"haar_states": a["n"]},
}


def install(tracer):
    """Wrap every boundary name in gcsloc.cli and in the gcsloc package."""
    for module in (gcsloc.cli, gcsloc):
        for layer, names in LAYERS.items():
            present = [n for n in names if hasattr(module, n)]
            counters = {
                n: _binder(getattr(module, n), COUNTERS[n]) for n in present if n in COUNTERS
            }
            tracer.install(module, present, layer + ".", counters)
    main_counter = _binder(gcsloc.cli.main, lambda a: {"command": a["argv"][0]})
    tracer.install(gcsloc.cli, ["main"], "cli.", {"main": main_counter})


def _durations(spans, idx):
    return [spans[i][2] - spans[i][1] for i in idx]


def _per_unit(spans, idx, key, scale):
    return [(spans[i][2] - spans[i][1]) / spans[i][5][key] * scale for i in idx if spans[i][5][key]]


def _micro_step_us(jobs, sizes, seed):
    """Median time of one public snlse_step call at each (d, K)."""
    out = {}
    rng = np.random.default_rng(seed)
    amp = np.sqrt(2.0 * jobs.GAMMA * jobs.DT)
    for label, spec in STEP_ALGEBRAS.items():
        rep = jobs.build_algebra(spec)
        psi = gcsloc.haar_state(rep.dim_hilbert, seed)
        noise = amp * rng.standard_normal((sizes["micro_calls"] + 20, rep.dim_algebra))
        times = []
        for i, incr in enumerate(noise):
            t0 = time.perf_counter()
            psi = gcsloc.snlse_step(psi, None, rep, jobs.GAMMA, jobs.DT, incr)
            if i >= 20:  # the first calls warm caches
                times.append(time.perf_counter() - t0)
        out[label] = times
    return out


def _micro_record_us(jobs, ctx, seed):
    """Per-record cost: simulate_trajectory at stride 1 against stride =
    steps, divided by the difference in record count."""
    alg = ctx.algebras[jobs.TRAJ_ALGEBRA]
    steps = ctx.sizes["record_steps"]
    cfg = gcsloc.NoiseConfig(gamma=jobs.GAMMA, dt=jobs.DT, steps=steps, seed=seed)
    vals = []
    for _ in range(ctx.sizes["micro_reps"]):
        walls = []
        for stride in (1, steps):
            t0 = time.perf_counter()
            gcsloc.simulate_trajectory(alg.hw, None, alg.rep, cfg, record_stride=stride)
            walls.append(time.perf_counter() - t0)
        vals.append((walls[0] - walls[1]) / (steps + 1 - 2) * 1e6)
    return vals


def step_flops(d, k):
    """Computed real flops of one measurement step of one trajectory
    (complex multiply-add = 8): generator action 8Kd^2, Casimir 8d^2,
    expectations and update 12Kd, scalars and normalization."""
    return 8 * k * d * d + 8 * d * d + 12 * k * d + 7 * k + 16 * d


def _micro_ensemble_us(jobs, ctx, seed):
    """Microseconds per trajectory-step of a su(6) ensemble_average at
    GCSLOC_THREADS = 1 and 2 (alternating, median of micro_reps each)."""
    sz = ctx.sizes
    rep = ctx.algebras[jobs.ENS_ALGEBRA].rep
    psi0 = gcsloc.haar_state(rep.dim_hilbert, seed)
    cfg = gcsloc.NoiseConfig(gamma=jobs.GAMMA, dt=jobs.DT, steps=sz["ens_micro_steps"], seed=seed)
    work = sz["ens_micro_traj"] * sz["ens_micro_steps"]
    out = {1: [], 2: []}
    for _ in range(sz["micro_reps"]):
        for n in (1, 2):
            with jobs.threads(n):
                t0 = time.perf_counter()
                gcsloc.ensemble_average(psi0, None, rep, cfg, sz["ens_micro_traj"], record_stride=sz["ens_micro_steps"])
                out[n].append((time.perf_counter() - t0) / work * 1e6)
    return out


def measure(tracer, jobs, sizes, out_dir, seed, timed, traced):
    """Run the traced layer sweep and the microbenchmarks.

    Returns (metrics, samples, sweep_results): metrics maps each per-layer
    name to (value, unit); samples maps it to the number of measurements
    behind the value.
    """
    install(tracer)
    try:
        for r in range(sizes["sweep_reps"]):
            tracer.job = f"sweep-setup-{r}"
            ctx = jobs.setup("verify", sizes, out_dir)
        sweep_results = []
        for r in range(sizes["sweep_reps"]):
            for kind in jobs.WORKLOADS:
                tracer.job = f"sweep-{kind}-{r}"
                sweep_results.append(jobs.run_job(kind, ctx, seed + r))
    finally:
        tracer.uninstall()

    spans = tracer.spans
    selfs = self_times(spans)
    m, n = {}, {}

    def put(name, values, unit, scale=1.0):
        values = list(values)
        m[name] = (statistics.median(values) * scale if values else float("nan"), unit)
        n[name] = len(values)

    def named(name, prefix="sweep-"):
        return spans_named(spans, name, prefix)

    for metric, prefix in (("algebra.build_ms", "algebra.build_"), ("cartan.decompose_ms", "cartan.cartan_decompose")):
        per_pass = []
        count = 0
        for r in range(sizes["sweep_reps"]):
            idx = [i for i, s in enumerate(spans) if s[0].startswith(prefix) and s[4] == f"sweep-setup-{r}"]
            per_pass.append(sum(_durations(spans, idx)))
            count += len(idx)
        m[metric] = (statistics.median(per_pass) * 1e3, "ms")
        n[metric] = count

    put("cartan.align_us", _durations(spans, named("cartan.align_expectation_to_cartan")), "us", 1e6)
    put("cartan.gcs_us", _durations(spans, named("cartan.generate_gcs")), "us", 1e6)
    put("observables.drift_us", _durations(spans, named("observables.localization_drift")), "us", 1e6)
    put("observables.split_us", _durations(spans, named("observables.cartan_split_sums")), "us", 1e6)
    put("observables.bounds_ms", _durations(spans, named("observables.uncertainty_bounds")), "ms", 1e3)

    sim = named("dynamics.simulate_trajectory", "sweep-trajectory")
    put("dynamics.traj_step_us", (selfs[i] / spans[i][5]["steps"] for i in sim), "us", 1e6)
    put("dynamics.expm_ms", _per_unit(spans, named("dynamics.lindblad_expm_evolve"), "expm_calls", 1e3), "ms")
    rk4 = named("dynamics.lindblad_evolve")
    for dim, label in RK4_DIMS.items():
        idx = [i for i in rk4 if spans[i][5]["dim"] == dim]
        put(f"dynamics.rk4_step_us.{label}", _per_unit(spans, idx, "rk4_steps", 1e6), "us")
    put("dynamics.haar_us", _per_unit(spans, named("dynamics.haar_states"), "haar_states", 1e6), "us")

    mains = named("cli.main")
    for command in ("simulate", "ensemble", "theorem-scan", "bounds"):
        put(f"cli.self_ms.{command}", (selfs[i] for i in mains if spans[i][5]["command"] == command), "ms", 1e3)

    sweep_spans = [s for s in spans if str(s[4]).startswith("sweep-")]
    for key in ("steps", "records", "scan_states", "rk4_steps", "expm_calls"):
        m[f"count.{key}"] = (sum((s[5] or {}).get(key, 0) for s in sweep_spans), "count")
        n[f"count.{key}"] = 1

    for label, times in _micro_step_us(jobs, sizes, seed).items():
        put(f"dynamics.step_us.{label}", times, "us", 1e6)
    put("dynamics.record_us", _micro_record_us(jobs, ctx, seed), "us")
    ens = _micro_ensemble_us(jobs, ctx, seed)
    put("dynamics.ens_step_us.t1", ens[1], "us")
    put("dynamics.ens_step_us.t2", ens[2], "us")
    t1, t2 = m["dynamics.ens_step_us.t1"][0], m["dynamics.ens_step_us.t2"][0]
    m["dynamics.thread_speedup"] = (t1 / t2, "x")
    n["dynamics.thread_speedup"] = n["dynamics.ens_step_us.t1"] + n["dynamics.ens_step_us.t2"]
    rep = ctx.algebras[jobs.ENS_ALGEBRA].rep
    m["dynamics.ens_gflops"] = (step_flops(rep.dim_hilbert, rep.dim_algebra) / (t2 * 1e-6) / 1e9, "GFLOP/s")
    n["dynamics.ens_gflops"] = n["dynamics.ens_step_us.t2"]

    plain = [r.wall for r, on in zip(timed, traced) if not on]
    with_spans = [r.wall for r, on in zip(timed, traced) if on]
    if plain and with_spans:
        overhead = statistics.fmean(with_spans) / statistics.fmean(plain) - 1.0
    else:
        overhead = float("nan")
    m["trace_overhead"] = (overhead, "ratio")
    n["trace_overhead"] = len(timed)
    return m, n, sweep_results
