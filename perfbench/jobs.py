"""Workload set-up, jobs and output checks for the gcsloc benchmark.

Every job drives the public API or ``gcsloc.cli.main`` in-process.  A job
returns a ``JobResult``; a failed output check is recorded in
``JobResult.failures`` and counted as a failed operation, never raised.
Module attributes are looked up at call time (``gcsloc.cli.main``,
``gcsloc.generate_gcs``, ...) so that a tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import gcsloc
import gcsloc.cli

import calibrate

GAMMA = 0.1
DT = 1e-3

TRAJ_ALGEBRA = "su2:two_j=4"
ENS_ALGEBRA = "suN:n=6"
VERIFY_ALGEBRAS = ("su2:two_j=2", "su2:two_j=4", "su2:two_j=8", "suN:n=3", "suN:n=6")
RK4_ONLY_ALGEBRA = "su2:two_j=8"  # d^2 = 81 is past the exact solver's d^2 <= 64
RK4_EXACT_ALGEBRA = "suN:n=6"  # d^2 = 36: RK4 is cross-checked against expm

# Output bounds, all taken from the program or its acceptance suite.
BIAS_BOUND = 5e-3  # acceptance criterion 3, max |uncertainty - delta_min|
ME_BOUND = 0.05  # the ensemble command's default --bound
DRIFT_TOL = 1e-9  # theorem-scan's drift tolerance
SPLIT_TOL = 1e-8  # acceptance criterion 7, sector partition
SUM_RULE_TOL = 1e-9  # uncertainty + purity = quadratic invariant
RK4_EXACT_TOL = 1e-9  # stated here: RK4 at dt = 1e-3 against the exact flow

ENSEMBLE_THREADS = 2  # GCSLOC_THREADS of every ensemble job; nproc = 2
WORKLOADS = ("trajectory", "ensemble", "verify")

SIZES = {
    "full": {
        "traj_time": 1.0,
        "ens_time": 0.25,
        "ens_traj": 512,
        "ens_stride": 50,
        "scan_samples": 2000,
        "n_gcs": 40,
        "n_split": 40,
        "rk4_steps": 150,
        "rk4_stride": 50,
        "extremal_traj": 1536,
        "extremal_block": 128,
        "quality_ens_jobs": 24,
        "sweep_reps": 3,
        "micro_calls": 500,
        "micro_reps": 3,
        "record_steps": 1000,
        "ens_micro_traj": 512,
        "ens_micro_steps": 100,
    },
    # Self-test size: every code path, a few milliseconds each.
    "tiny": {
        "traj_time": 0.02,
        "ens_time": 0.02,
        "ens_traj": 64,
        "ens_stride": 10,
        "scan_samples": 50,
        "n_gcs": 2,
        "n_split": 2,
        "rk4_steps": 10,
        "rk4_stride": 5,
        "extremal_traj": 8,
        "extremal_block": 4,
        "quality_ens_jobs": 1,
        "sweep_reps": 1,
        "micro_calls": 5,
        "micro_reps": 1,
        "record_steps": 10,
        "ens_micro_traj": 8,
        "ens_micro_steps": 10,
    },
}


@dataclass
class JobResult:
    kind: str
    seed: int
    wall: float = 0.0
    failures: list = field(default_factory=list)
    traj_steps: int = 0
    max_distance: float | None = None
    bias: float | None = None
    ref: float | None = None  # mean calibrate.reference_s before and after the job

    @property
    def scaled_wall(self) -> float:
        """`wall` at the nominal host speed (see calibrate)."""
        return calibrate.scaled(self.wall, self.ref, job_threads(self.kind))

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, cond, message):
        if not cond:
            self.failures.append(message)


@dataclass
class Algebra:
    rep: object
    cartan: object
    hw: np.ndarray
    delta_min: float
    casimir: float


@dataclass
class Context:
    sizes: dict
    out_dir: str
    algebras: dict


def build_algebra(spec):
    """AlgebraRep for su2:two_j=N or suN:n=N."""
    family, _, arg = spec.partition(":")
    n = int(arg.partition("=")[2])
    if family == "su2":
        return gcsloc.build_su2_irrep(n)
    return gcsloc.build_sun_fundamental(n)


def workload_algebras(workload):
    """Algebras a workload builds in set-up.  su2:two_j=4 is always there:
    the extremal-bias probe runs on it in every workload."""
    if workload == "verify":
        return VERIFY_ALGEBRAS
    if workload == "ensemble":
        return (ENS_ALGEBRA, TRAJ_ALGEBRA)
    return (TRAJ_ALGEBRA,)


def setup(workload, sizes, out_dir):
    """Build the workload's algebras, Cartan data, extremal states and
    uncertainty bounds.  No workload has a Hamiltonian, so there are no
    propagators to prepare."""
    os.makedirs(out_dir, exist_ok=True)
    algebras = {}
    for spec in workload_algebras(workload):
        rep = build_algebra(spec)
        cartan = gcsloc.cartan_decompose(rep)
        delta_min, casimir = gcsloc.uncertainty_bounds(rep, cartan)
        algebras[spec] = Algebra(rep, cartan, gcsloc.highest_weight_state(cartan), delta_min, casimir)
    return Context(sizes=sizes, out_dir=out_dir, algebras=algebras)


@contextlib.contextmanager
def threads(n):
    """Set GCSLOC_THREADS for the duration of a block (read at call time)."""
    old = os.environ.get("GCSLOC_THREADS")
    os.environ["GCSLOC_THREADS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["GCSLOC_THREADS"]
        else:
            os.environ["GCSLOC_THREADS"] = old


def _cli(argv):
    t0 = time.perf_counter()
    rc = gcsloc.cli.main(argv)
    return rc, time.perf_counter() - t0


def _steps(total_time):
    return int(round(total_time / DT))


def trajectory_job(ctx, seed):
    """README quick-tour trajectory at stride 1: `gcsloc simulate` to CSV."""
    res = JobResult("trajectory", seed)
    alg = ctx.algebras[TRAJ_ALGEBRA]
    steps = _steps(ctx.sizes["traj_time"])
    path = os.path.join(ctx.out_dir, "traj.csv")
    rc, res.wall = _cli([
        "simulate", "--algebra", TRAJ_ALGEBRA, "--init", "highest", "--stride", "1",
        "--gamma", repr(GAMMA), "--dt", repr(DT), "--time", repr(ctx.sizes["traj_time"]),
        "--seed", str(seed), "--out", path,
    ])
    res.traj_steps = steps
    res.check(rc == 0, f"simulate exited {rc}")
    if rc != 0:
        return res
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    k = alg.rep.dim_algebra
    res.check(
        header == ["t", "uncertainty", "purity", "cov_trace_norm", "drift"] + [f"x{i + 1}" for i in range(k)],
        f"unexpected CSV header {header}",
    )
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    res.check(data.shape == (steps + 1, 5 + k), f"CSV shape {data.shape}, expected {(steps + 1, 5 + k)}")
    unc, purity = data[:, 1], data[:, 2]
    res.check(
        bool(np.all((unc >= alg.delta_min - BIAS_BOUND) & (unc <= alg.casimir))),
        f"uncertainty outside [delta_min - {BIAS_BOUND}, c]",
    )
    res.check(
        float(np.max(np.abs(unc + purity - alg.casimir))) <= SUM_RULE_TOL * alg.casimir,
        "uncertainty + purity != quadratic invariant",
    )
    # Reported, not checked: about 1.3% of spin-2 trajectories exceed
    # acceptance criterion 3's bound (stated for one spin-1 trajectory), by
    # the integrator's O(dt) error.  The bound is checked on the quality
    # stage's median over a fixed set of trajectories (worker.quality).
    res.bias = float(np.max(np.abs(unc - alg.delta_min)))
    return res


def ensemble_job(ctx, seed, bound=None):
    """su(6) ensemble against the exact master equation, GCSLOC_THREADS=2,
    default 256-trajectory blocks.

    Trajectory j of an ensemble uses seed --seed + j, so the CLI gets
    seed * n_traj: jobs seed and seed + 1 then share no trajectory.
    """
    res = JobResult("ensemble", seed)
    sz = ctx.sizes
    steps = _steps(sz["ens_time"])
    prefix = os.path.join(ctx.out_dir, "ens")
    argv = [
        "ensemble", "--algebra", ENS_ALGEBRA, "--stride", str(sz["ens_stride"]),
        "--gamma", repr(GAMMA), "--dt", repr(DT), "--time", repr(sz["ens_time"]),
        "--seed", str(seed * sz["ens_traj"]), "--traj", str(sz["ens_traj"]), "--out", prefix,
    ]
    if bound is not None:
        argv += ["--bound", repr(bound)]
    with threads(ENSEMBLE_THREADS):
        rc, res.wall = _cli(argv)
    res.traj_steps = steps * sz["ens_traj"]
    res.check(rc == 0, f"ensemble exited {rc}")
    if rc not in (0, 2):
        return res
    with open(prefix + ".json", encoding="utf-8") as fh:
        summary = json.load(fh)
    dist = np.loadtxt(prefix + ".csv", delimiter=",", skiprows=1, ndmin=2)
    res.max_distance = float(summary["max_distance"])
    res.check(dist.shape == (steps // sz["ens_stride"] + 1, 2), f"distance CSV shape {dist.shape}")
    res.check(res.max_distance <= ME_BOUND, f"max_distance {res.max_distance:.4f} > {ME_BOUND}")
    res.check(summary["passed"] is True, "ensemble summary not passed")
    return res


def verify_job(ctx, seed):
    """Structural checks on every verify algebra; no SDE integration."""
    res = JobResult("verify", seed)
    sz = ctx.sizes
    rng = np.random.default_rng(seed)
    scan_path = os.path.join(ctx.out_dir, "scan.json")
    bounds_path = os.path.join(ctx.out_dir, "bounds.json")
    t0 = time.perf_counter()
    for spec in VERIFY_ALGEBRAS:
        alg = ctx.algebras[spec]
        rep, cartan = alg.rep, alg.cartan

        rc = gcsloc.cli.main(["bounds", "--algebra", spec, "--out", bounds_path])
        res.check(rc == 0, f"{spec}: bounds exited {rc}")
        if rc == 0:
            with open(bounds_path, encoding="utf-8") as fh:
                reported = json.load(fh)
            res.check(
                abs(reported["delta_min"] - alg.delta_min) <= 1e-12 * max(1.0, alg.delta_min),
                f"{spec}: bounds delta_min {reported['delta_min']} != {alg.delta_min}",
            )

        rc = gcsloc.cli.main([
            "theorem-scan", "--algebra", spec, "--samples", str(sz["scan_samples"]),
            "--seed", str(seed), "--out", scan_path,
        ])
        res.check(rc == 0, f"{spec}: theorem-scan exited {rc}")
        if rc in (0, 2):
            with open(scan_path, encoding="utf-8") as fh:
                res.check(json.load(fh)["passed"] is True, f"{spec}: theorem-scan not passed")

        t_hw = gcsloc.covariance_trace_norm(alg.hw, rep)
        for params in rng.normal(size=(sz["n_gcs"], rep.dim_algebra)):
            psi = gcsloc.generate_gcs(rep, cartan, params)
            drift = gcsloc.localization_drift(psi, rep, GAMMA)
            t_psi = gcsloc.covariance_trace_norm(psi, rep)
            res.check(abs(drift) <= DRIFT_TOL, f"{spec}: coherent-state drift {drift:.3e}")
            res.check(abs(t_psi - t_hw) <= SPLIT_TOL * max(1.0, t_hw), f"{spec}: orbit T {t_psi} != {t_hw}")

        for psi in gcsloc.haar_states(rep.dim_hilbert, sz["n_split"], seed):
            aligned = gcsloc.align_expectation_to_cartan(psi, rep, cartan)
            split = gcsloc.cartan_split_sums(aligned, rep, cartan)
            closed = gcsloc.root_pair_closed_form(aligned, cartan)
            parts = split.cartan_block + split.mixed_block + split.same_line_block + split.cross_line_block
            scale = max(1.0, split.total)
            res.check(abs(parts - split.total) <= SPLIT_TOL * scale, f"{spec}: sector partition off by {parts - split.total:.3e}")
            res.check(abs(closed - split.same_line_block) <= SPLIT_TOL * scale, f"{spec}: root-pair closed form off")

    for spec in (RK4_ONLY_ALGEBRA, RK4_EXACT_ALGEBRA):
        rep = ctx.algebras[spec].rep
        psi0 = gcsloc.haar_state(rep.dim_hilbert, seed)
        rho0 = np.outer(psi0, psi0.conj())
        times, rhos = gcsloc.lindblad_evolve(
            rho0, None, rep, GAMMA, DT, sz["rk4_steps"], record_stride=sz["rk4_stride"]
        )
        for rho in rhos:
            try:
                gcsloc.validate_density(rho, rep.dim_hilbert)
            except ValueError as err:
                res.failures.append(f"{spec}: RK4 record rejected: {err}")
        if spec == RK4_EXACT_ALGEBRA:
            exact = gcsloc.lindblad_expm_evolve(rho0, None, rep, GAMMA, times)
            diff = float(np.max(np.abs(exact - rhos)))
            res.check(diff <= RK4_EXACT_TOL, f"{spec}: RK4 vs exact flow {diff:.3e} > {RK4_EXACT_TOL}")
    res.wall = time.perf_counter() - t0
    return res


def job_threads(kind):
    return ENSEMBLE_THREADS if kind == "ensemble" else 1


JOBS = {"trajectory": trajectory_job, "ensemble": ensemble_job, "verify": verify_job}


def run_job(kind, ctx, seed):
    """Run one job between two runs of the host-speed reference loop; an
    exception is a failed operation, reported to stderr."""
    before = calibrate.reference_s(job_threads(kind))
    try:
        res = JOBS[kind](ctx, seed)
    except Exception as err:  # job boundary: record the failure and go on
        traceback.print_exc()
        res = JobResult(kind, seed)
        res.failures.append(f"{type(err).__name__}: {err}")
    res.ref = 0.5 * (before + calibrate.reference_s(job_threads(kind)))
    return res


def extremal_block(ctx, seed, lo):
    """Largest |uncertainty - delta_min| of each of trajectories
    lo .. lo + `extremal_block` - 1 of the extremal-bias probe: su2:two_j=4
    from |hw>, stride 1, T = traj_time, trajectory i uses seed + i.

    The probe runs through ``ensemble_observables``, the batched step
    kernel, which is affordable at its size; a change confined to
    ``simulate_trajectory`` does not move its figures."""
    sz = ctx.sizes
    alg = ctx.algebras[TRAJ_ALGEBRA]
    cfg = gcsloc.NoiseConfig(gamma=GAMMA, dt=DT, steps=_steps(sz["traj_time"]), seed=seed + lo)
    _, rows = gcsloc.ensemble_observables(alg.hw, None, alg.rep, cfg, sz["extremal_block"], record_stride=1)
    return np.max(np.abs(rows[:, :, 0] - alg.delta_min), axis=1).tolist()
