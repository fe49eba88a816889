"""gcsloc benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {trajectory,ensemble,verify}
                             --seed N --seconds S --trace {0,1}

Run from the root of a gcsloc source tree; the program is imported from
``src``.  Every workload process starts fresh with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS pinned to 1 and GCSLOC_THREADS set per
workload.  Set-up is measured in several fresh processes, half before and
half after the main one, and reported as the median.  Gated times are
scaled to a fixed host speed by a reference loop run beside each job and
each set-up (calibrate.py).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics (from a separate traced
process) with --trace 1.  Earlier lines carry the environment, the sample
count behind every figure, the raw times and each failed check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOAD_THREADS = {"trajectory": 1, "ensemble": 2, "verify": 1}
SETUP_RUNS = {"full": 8, "tiny": 1}
OUT_DIR = ".perfbench_out"
TIME_LIMIT_S = 170.0
SETUP_TIMEOUT_S = 10.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "traj_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "extremal_bias": "1",
    "me_max_dist": "1",
}


def worker_env(workload):
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        GCSLOC_THREADS=str(WORKLOAD_THREADS[workload]),
        # One malloc arena: with one per thread, freed ensemble noise
        # blocks stay cached in a varying number of arenas, and peak RSS
        # took one of three values 15 MB apart from run to run.
        MALLOC_ARENA_MAX="1",
    )
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(mode, args, timeout):
    """Run worker.py in a fresh process; return its JSON result."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--size", args.size, "--out-dir", OUT_DIR,
    ]
    # subprocess.run kills the child and waits for it on timeout.
    proc = subprocess.run(
        cmd, env=worker_env(args.workload), stdout=subprocess.PIPE, timeout=timeout, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOAD_THREADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=sorted(SETUP_RUNS), default="full", help="tiny: self-test size")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "gcsloc", "cli.py")):
        print("error: run from the root of a gcsloc source tree (src/gcsloc not found)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.monotonic()
    try:
        n = SETUP_RUNS[args.size]
        setups = [run_worker("setup", args, SETUP_TIMEOUT_S) for _ in range(n // 2)]
        mode = "trace" if args.trace else "run"
        left = TIME_LIMIT_S - (time.monotonic() - start) - (n - n // 2) * SETUP_TIMEOUT_S
        main_out = run_worker(mode, args, left)
        setups += [run_worker("setup", args, SETUP_TIMEOUT_S) for _ in range(n - n // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    setups.append(main_out)

    metrics = dict(main_out["metrics"])
    samples = dict(main_out.get("samples", {}))
    if args.trace:
        metrics["setup.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
        samples["setup.import_s"] = len(setups)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        import calibrate  # numpy: not needed before the workers are done

        metrics["setup_s"] = statistics.median(calibrate.scaled(s["setup_s"], s["setup_ref_s"]) for s in setups)
        main_out["detail"]["setup_raw_median_s"] = statistics.median(s["setup_s"] for s in setups)
        samples["setup_s"] = len(setups)
        samples["run_s"] = main_out["detail"]["timed_jobs"]
        samples["traj_steps_per_s"] = main_out["detail"]["rate_jobs"]
        samples["extremal_bias"] = main_out["detail"]["extremal_traj"]
        samples["me_max_dist"] = main_out["detail"]["quality_ensemble_jobs"]
        metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = None
    print("env " + json.dumps(main_out["env"], sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    print("detail " + json.dumps(main_out["detail"], sort_keys=True))
    result = {
        "correct": finite and main_out["failed"] == 0,
        "attempted": main_out["attempted"],
        "failed": main_out["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
