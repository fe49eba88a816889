"""One benchmark process: set-up, then (unless --mode setup) the timed phase.

Started by run.py with the BLAS and gcsloc thread counts already pinned in
the environment and ``src`` on PYTHONPATH.  Prints one JSON object as its
last line of standard output.

Modes
-----
setup  import gcsloc and build the workload's algebras; report the times.
run    set-up, then the untraced closed-loop timed phase and the quality
       stage; report the end-to-end figures.
trace  set-up, then the timed phase with every other job traced, the fixed
       traced layer sweep and the layer microbenchmarks; report the
       per-layer figures and write the spans to the output directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import sys
import time


def _environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {
            k: os.environ.get(k)
            for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GCSLOC_THREADS", "MALLOC_ARENA_MAX"
            )
        },
        "commit": _commit(),
    }


def _commit():
    """HEAD of the checkout's git repository, if it is one."""
    try:
        with open(".git/HEAD", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def timed_phase(jobs, kind, ctx, seed, seconds, tracer=None, background=()):
    """Closed loop: job i (seed + i) starts when job i - 1 has finished,
    until the jobs have taken `seconds` in all.  With a tracer, odd jobs
    are traced.

    The untimed `background` calls are spread evenly between the jobs, so
    that the timed jobs sample the host over the whole run rather than one
    stretch of it.  Returns (job results, traced flags, background outputs
    in order)."""
    if tracer is not None:
        import layers  # imports gcsloc, so only after the timed import
    background = list(background)
    results, traced, outputs = [], [], []
    busy = 0.0
    i = 0
    while busy < seconds:
        on = tracer is not None and i % 2 == 1
        if on:
            tracer.job = f"timed-{i}"
            layers.install(tracer)
        t0 = time.perf_counter()
        try:
            res = jobs.run_job(kind, ctx, seed + i)
        finally:
            busy += time.perf_counter() - t0
            if on:
                tracer.uninstall()
        results.append(res)
        traced.append(on)
        i += 1
        while len(outputs) < len(background) * min(busy / seconds, 1.0):
            outputs.append(background[len(outputs)]())
    return results, traced, outputs


def _tail(walls):
    """The highest percentile of sorted job times with ten samples beyond it."""
    if len(walls) < 20:
        return {}
    k = len(walls) - 11
    return {"job_wall_tail_s": walls[k], "job_wall_tail_pct": round(100.0 * (k + 1) / len(walls), 1)}


def probe_work(jobs, ctx, seed):
    """The extremal-bias probe as a list of calls, one per block, for the
    timed phase's background."""
    sz = ctx.sizes
    return [
        functools.partial(jobs.extremal_block, ctx, seed, lo)
        for lo in range(0, sz["extremal_traj"], sz["extremal_block"])
    ]


def quality(jobs, workload, ctx, seed, timed, blocks):
    """Fixed-size accuracy figures: the median largest extremal bias over
    the probe's trajectories (its `blocks` of maxima), and the mean
    max_distance of ensemble jobs seed .. seed + n - 1 (the first timed
    jobs on `ensemble`; the rest run here).  Every workload reports every
    end-to-end metric, so each runs this same stage: the figures are one
    number per seed, repeated on the three workloads.

    The probe is one checked operation: its median must hold acceptance
    criterion 3's bound.  Single trajectories over that bound are counted
    in `extremal_over_bound` and not failed (see ``jobs.trajectory_job``)."""
    n = ctx.sizes["quality_ens_jobs"]
    ens = list(timed[:n]) if workload == "ensemble" else []
    extra = [jobs.run_job("ensemble", ctx, seed + i) for i in range(len(ens), n)]
    ens += extra
    maxima = [m for block in blocks for m in block]
    probe = jobs.JobResult("extremal-probe", seed)
    bias = statistics.median(maxima)
    probe.check(bias <= jobs.BIAS_BOUND, f"median extremal bias {bias:.3e} > {jobs.BIAS_BOUND}")
    dists = [r.max_distance for r in ens if r.max_distance is not None]
    return {
        "extremal_bias": bias,
        "extremal_over_bound": sum(m > jobs.BIAS_BOUND for m in maxima),
        "extremal_traj": len(maxima),
        "me_max_dist": statistics.fmean(dists) if dists else float("nan"),
        "ensemble_jobs": ens,
        "checked": extra + [probe],
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    p.add_argument("--out-dir", required=True)
    args = p.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()

    t0 = time.perf_counter()
    import gcsloc  # noqa: F401  (timed: the import is part of set-up)
    import gcsloc.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    import jobs

    ctx = jobs.setup(args.workload, jobs.SIZES[args.size], args.out_dir)
    setup_s = time.perf_counter() - t0
    import calibrate

    ref = statistics.median(calibrate.reference_s() for _ in range(3))
    out = {"import_s": import_s, "setup_s": setup_s, "setup_ref_s": ref}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    out["env"] = _environment(args.seed)
    background = probe_work(jobs, ctx, args.seed) if args.mode == "run" else ()
    results, traced, blocks = timed_phase(
        jobs, args.workload, ctx, args.seed, args.seconds, tracer, background
    )

    if args.mode == "run":
        # Before the quality stage's ensemble jobs, which trajectory and
        # verify would not otherwise run.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        t_q = time.perf_counter()
        q = quality(jobs, args.workload, ctx, args.seed, results, blocks)
        rate_jobs = q["ensemble_jobs"] if args.workload == "verify" else results
        every = results + q["checked"]
        walls = sorted(r.wall for r in results)
        out.update(
            # Job times at the nominal host speed (see calibrate); the raw
            # times are in `detail`.
            metrics={
                "run_s": statistics.median(r.scaled_wall for r in results),
                "traj_steps_per_s": statistics.median(
                    r.traj_steps / r.scaled_wall for r in rate_jobs if r.traj_steps
                ),
                "peak_rss_mb": peak_rss_mb,
                "extremal_bias": q["extremal_bias"],
                "me_max_dist": q["me_max_dist"],
            },
            attempted=len(every),
            failed=sum(not r.ok for r in every),
            detail={
                "timed_jobs": len(results),
                "job_walls_s": [r.wall for r in results],
                "job_wall_mean_s": statistics.fmean(walls),
                "job_wall_median_s": statistics.median(walls),
                "job_refs_s": [r.ref for r in results],
                "job_ref_median_s": statistics.median(r.ref for r in results),
                **_tail(walls),
                "rate_jobs": len(rate_jobs),
                "quality_s": time.perf_counter() - t_q,
                "quality_ensemble_jobs": len(q["ensemble_jobs"]),
                "extremal_traj": q["extremal_traj"],
                "extremal_over_bound": q["extremal_over_bound"],
                "bias_over_bound_seeds": [r.seed for r in results if r.bias is not None and r.bias > jobs.BIAS_BOUND],
                "failures": [f"{r.kind} seed {r.seed}: {m}" for r in every for m in r.failures],
            },
        )
    else:
        import layers

        metrics, samples, sweep = layers.measure(
            tracer, jobs, jobs.SIZES[args.size], args.out_dir, args.seed, results, traced
        )
        every = results + sweep
        out.update(
            metrics=metrics,
            samples=samples,
            attempted=len(every),
            failed=sum(not r.ok for r in every),
            detail={"failures": [f"{r.kind} seed {r.seed}: {m}" for r in every for m in r.failures]},
        )
        tracer.dump(
            os.path.join(args.out_dir, f"trace_{args.workload}_{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "env": out["env"]},
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
