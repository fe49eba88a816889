"""Command-line harness: trajectories, ensembles, theorem scans, bounds.

Subcommands
-----------
simulate
    One measurement trajectory; writes a CSV time series with header
    ``t,uncertainty,purity,cov_trace_norm,drift,x1..xK``.
ensemble
    Trajectory-averaged projector against the exact master-equation flow;
    writes a per-time Frobenius-distance CSV and a JSON summary.  Exits 2
    when the maximum distance exceeds the configured bound.
theorem-scan
    Haar scan of the squared covariance norm and the drift functional;
    writes a JSON report.  Exits 2 on a violation of the coherent-state
    minimum or of drift nonpositivity, with the offending state serialized.
bounds
    JSON dump of the invariant constants and root data for an algebra.

Exit codes: 0 success, 1 usage/config error, 2 scientific-assertion
failure.  Floats in CSV output carry 17 significant digits; identical
configuration and seed reproduce identical bytes.  Each subcommand takes
only the flags it reads.  A key=value config file (``--config``) can give any
of them that takes a value: each line becomes a ``--key=value`` flag read
before the explicit ones, so explicit flags win.  The
GCSLOC_THREADS environment variable sets how many processes, the calling
one and forked children (POSIX only), step an ensemble's blocks, in rounds
of that many (results are reduced in block order: output never changes).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from .algebra import AlgebraRep, build_su2_irrep, build_sun_fundamental
from .cartan import cartan_decompose, highest_weight_state
from .dynamics import (
    NoiseConfig,
    _check_dt,
    _check_gamma,
    _observe_batch,
    _record_grid,
    ensemble_average,
    haar_state,
    lindblad_expm_evolve,
    scan_states,
    simulate_trajectory,
)
from .observables import uncertainty_bounds

__all__ = ["main"]

FLOAT_FMT = "%.17g"
CSV_BLOCK = 4096  # rows formatted by one % operation


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage problems instead of its default 2."""

    def error(self, message):
        raise UsageError(message)


def parse_algebra(spec: str) -> AlgebraRep:
    """Build an AlgebraRep from a spec string su2:two_j=N or suN:n=N."""
    try:
        family, _, arg = spec.partition(":")
        key, _, val = arg.partition("=")
        if family == "su2" and key == "two_j":
            return build_su2_irrep(int(val))
        if family == "suN" and key == "n":
            return build_sun_fundamental(int(val))
    except (ValueError, TypeError) as err:
        raise UsageError(f"bad algebra spec {spec!r}: {err}") from err
    raise UsageError(
        f"unsupported algebra spec {spec!r}; expected su2:two_j=N or suN:n=N"
    )


def _config_tokens(argv):
    """The lines of the file named by --config in argv, as --key=value flags.

    '#' starts a comment.  The ``=`` form keeps a value that starts with '-'
    (a negative --ham coefficient) attached to its flag.
    """
    path = None
    for i, arg in enumerate(argv):
        if arg == "--config":
            if i + 1 == len(argv):
                raise UsageError("argument --config: expected one argument")
            path = argv[i + 1]
        elif arg.startswith("--config="):
            path = arg.partition("=")[2]
    if path is None:
        return []
    tokens = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, val = line.partition("=")
                if not eq:
                    raise UsageError(f"{path}:{ln}: expected key=value, got {raw!r}")
                if key.strip() == "config":
                    raise UsageError(f"{path}:{ln}: a config file cannot name another, got {raw!r}")
                tokens.append(f"--{key.strip()}={val.strip()}")
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err}") from err
    return tokens


def _steps_from(args) -> int:
    _check_dt(args.dt)
    if not np.isfinite(args.time):
        raise UsageError(f"--time must be finite, got {args.time}")
    if args.time <= 0:
        raise UsageError(f"--time must be positive, got {args.time}")
    ratio = args.time / args.dt
    if not np.isfinite(ratio):
        raise UsageError(f"--time {args.time} / --dt {args.dt} is not a finite step count")
    steps = round(ratio)
    if abs(ratio - steps) > 1e-9 * max(1.0, abs(ratio)):
        raise UsageError(f"--time {args.time} is not an integer multiple of --dt {args.dt}")
    if steps < 1:
        raise UsageError(f"--time {args.time} is shorter than one --dt {args.dt} step: the run has no step")
    return int(steps)


def _parse_ham(text, rep):
    if text is None:
        return None
    try:
        coeffs = np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError as err:
        raise UsageError(f"bad --ham list {text!r}: {err}") from err
    if coeffs.shape != (rep.dim_algebra,):
        raise UsageError(
            f"--ham needs {rep.dim_algebra} comma-separated values, got {len(coeffs)}"
        )
    return coeffs


def _run_inputs(args):
    """(rep, cfg, h, psi0) of a simulate or ensemble run, read from its
    flags in this order: the algebra, the noise config, the --ham
    coefficients (or None) and the --init state."""
    rep = parse_algebra(args.algebra)
    cfg = NoiseConfig(gamma=args.gamma, dt=args.dt, steps=_steps_from(args), seed=args.seed)
    h = _parse_ham(args.ham, rep)
    if args.init == "highest":
        psi0 = highest_weight_state(cartan_decompose(rep))
    else:
        psi0 = haar_state(rep.dim_hilbert, args.seed)
    return rep, cfg, h, psi0


@contextlib.contextmanager
def _output(path):
    """stdout for '-', left open; otherwise path, opened for writing."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


def _jsonable(x):
    """An ndarray as nested lists, each complex entry a [real, imag] pair."""
    if isinstance(x, np.ndarray):
        if np.iscomplexobj(x):
            return np.stack([x.real, x.imag], -1).tolist()
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable)
    with _output(path) as fh:
        fh.write(text + "\n")


def _write_csv(path, cols, table):
    """A header of column names, then one FLOAT_FMT line per row of table,
    formatted CSV_BLOCK rows at a time."""
    fmt = ",".join([FLOAT_FMT] * len(cols)) + "\n"
    with _output(path) as fh:
        fh.write(",".join(cols) + "\n")
        for lo in range(0, len(table), CSV_BLOCK):
            block = table[lo : lo + CSV_BLOCK]
            fh.write((fmt * len(block)) % tuple(block.ravel().tolist()))


def cmd_simulate(args) -> int:
    rep, cfg, ham, psi0 = _run_inputs(args)
    rec = simulate_trajectory(psi0, ham, rep, cfg, record_stride=args.stride)

    cols = ["t", "uncertainty", "purity", "cov_trace_norm", "drift"] + [
        f"x{k + 1}" for k in range(rep.dim_algebra)
    ]
    table = np.column_stack(
        [rec.times, rec.uncertainty, rec.purity, rec.cov_trace_norm, rec.drift, rec.expectations]
    )
    _write_csv(args.out, cols, table)
    return 0


def cmd_ensemble(args) -> int:
    stride, bound = args.stride, args.bound
    if args.traj < 1:
        raise UsageError(f"--traj must be at least 1, got {args.traj}")
    if not (np.isfinite(bound) and bound >= 0):
        raise UsageError(f"--bound must be finite and >= 0, got {bound}")
    rep, cfg, ham, psi0 = _run_inputs(args)

    # the exact flow first: it costs little beside the ensemble, and its checks fail before that runs
    _, times = _record_grid(cfg.steps, stride, cfg.dt)
    rho_ref = lindblad_expm_evolve(np.outer(psi0, psi0.conj()), ham, rep, cfg.gamma, times)
    _, rho_mc = ensemble_average(psi0, ham, rep, cfg, args.traj, record_stride=stride)
    dist = np.linalg.norm(
        (rho_mc - rho_ref).reshape(len(times), -1), axis=1
    )

    csv_path = args.out + ".csv" if args.out != "-" else "-"
    _write_csv(csv_path, ["t", "frobenius_distance"], np.column_stack([times, dist]))

    max_dist = float(np.max(dist))
    summary = {
        "algebra": args.algebra,
        "gamma": cfg.gamma,
        "dt": cfg.dt,
        "time": args.time,
        "seed": cfg.seed,
        "n_traj": args.traj,
        "record_stride": stride,
        "bound": bound,
        "max_distance": max_dist,
        "final_distance": float(dist[-1]),
        "passed": bool(max_dist <= bound),
        "csv": csv_path,
    }
    _write_json(args.out + ".json" if args.out != "-" else "-", summary)
    return 0 if max_dist <= bound else 2


def cmd_theorem_scan(args) -> int:
    rep = parse_algebra(args.algebra)
    gamma, n = args.gamma, args.samples
    _check_gamma(gamma)
    if n < 1:
        raise UsageError(f"--samples must be at least 1, got {n}")
    cartan = cartan_decompose(rep)

    states = scan_states(rep.dim_hilbert, n, args.seed)
    tnorm, drift = _observe_batch(states, rep, gamma)[:, 2:4].T
    gcs_value = float(_observe_batch(highest_weight_state(cartan)[None], rep, gamma)[0, 2])

    tmin_idx = int(np.argmin(tnorm))
    dmax_idx = int(np.argmax(drift))
    min_ok = bool(tnorm[tmin_idx] >= gcs_value - 1e-9)
    drift_ok = bool(drift[dmax_idx] <= 1e-9)

    report = {
        "algebra": args.algebra,
        "samples": n,
        "seed": args.seed,
        "gamma": gamma,
        "cov_trace_norm_min": float(tnorm[tmin_idx]),
        "cov_trace_norm_mean": float(np.mean(tnorm)),
        "cov_trace_norm_at_extremal": gcs_value,
        "drift_min": float(np.min(drift)),
        "drift_max": float(drift[dmax_idx]),
        "passed": bool(min_ok and drift_ok),
        "violations": None,
    }
    if not (min_ok and drift_ok):
        bad_idx = tmin_idx if not min_ok else dmax_idx
        report["violations"] = {
            "kind": "cov_trace_norm_below_extremal" if not min_ok else "positive_drift",
            "sample_index": bad_idx,
            "state": states[bad_idx],
            "cov_trace_norm": float(tnorm[bad_idx]),
            "drift": float(drift[bad_idx]),
        }
    _write_json(args.out, report)
    return 0 if report["passed"] else 2


def cmd_bounds(args) -> int:
    rep = parse_algebra(args.algebra)
    cartan = cartan_decompose(rep)
    delta_min, c = uncertainty_bounds(rep, cartan)
    payload = {
        "algebra": args.algebra,
        "dim_algebra": rep.dim_algebra,
        "dim_hilbert": rep.dim_hilbert,
        "normalization": rep.normalization,
        "delta_min": delta_min,
        "casimir_eigenvalue": c,
        "adjoint_casimir": rep.adjoint_casimir,
        "rank": cartan.rank,
        "positive_roots": cartan.positive_roots,
        "roots": cartan.roots,
        "weights": cartan.weights,
        "highest_weight": cartan.highest_weight,
        "positive_root_sum": cartan.positive_root_sum,
    }
    if args.dump_algebra:
        payload["algebra_debug"] = {
            "dim_algebra": rep.dim_algebra,
            "dim_hilbert": rep.dim_hilbert,
            "normalization": rep.normalization,
            "casimir_eigenvalue": rep.casimir_eigenvalue,
            "adjoint_casimir": rep.adjoint_casimir,
            "generators": rep.generators,
            "structure_constants": rep.structure_constants,
        }
    _write_json(args.out, payload)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each subcommand's function reads its helpers from this
    module at call time."""
    parser = _Parser(
        prog="gcsloc",
        description=(
            "Weak-measurement localization onto generalized coherent states: "
            "stochastic trajectories, ensemble averages, and covariance-norm "
            "theorem scans over compact semisimple Lie algebras."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        # full flag names only: a config key is a flag name, never a prefix of one
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--algebra", required=True, help="algebra spec: su2:two_j=N or suN:n=N")
        p.add_argument("--out", required=True, help="output path ('-' for stdout)")
        p.add_argument("--config", help="key=value file of flags read before the explicit ones, which win")
        return p

    def trajectory(p):
        p.add_argument("--gamma", type=float, required=True, help="measurement strength")
        p.add_argument("--dt", type=float, required=True, help="integration step")
        p.add_argument("--time", type=float, required=True, help="total time T; T/dt must be integral")
        p.add_argument("--seed", type=int, required=True, help="base RNG seed")
        p.add_argument("--stride", type=int, default=1, help="record every this many steps (default %(default)s)")
        p.add_argument("--ham", help="comma-separated Hamiltonian coefficients a1,..,aK (default: no Hamiltonian)")
        p.add_argument("--init", default="haar", choices=["haar", "highest"], help="initial state: Haar-random or the extremal weight state (default %(default)s)")
        return p

    trajectory(command("simulate", cmd_simulate, "single stochastic trajectory -> CSV"))

    p_ens = trajectory(command("ensemble", cmd_ensemble, "trajectory average vs master equation -> CSV + JSON"))
    p_ens.add_argument("--traj", type=int, required=True, help="number of trajectories")
    p_ens.add_argument("--bound", type=float, default=0.05, help="max allowed Frobenius distance (default %(default)s)")

    p_scan = command("theorem-scan", cmd_theorem_scan, "Haar scan of covariance norm and drift -> JSON")
    p_scan.add_argument("--gamma", type=float, default=0.1, help="measurement strength in the drift (default %(default)s)")
    p_scan.add_argument("--seed", type=int, required=True, help="RNG seed of the scan states")
    p_scan.add_argument("--samples", type=int, default=10000, help="number of Haar samples (default %(default)s)")

    p_bounds = command("bounds", cmd_bounds, "invariant constants and root data -> JSON")
    p_bounds.add_argument("--dump-algebra", action="store_true", help="include generators and structure constants in the JSON")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # file flags go first, so argparse's last-one-wins lets explicit flags win
        argv[1:1] = _config_tokens(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
