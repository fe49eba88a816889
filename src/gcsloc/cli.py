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
configuration and seed reproduce identical bytes.  A key=value config file
can seed any long flag (``--config``); explicit flags win.  The
GCSLOC_THREADS environment variable sets the ensemble worker count
(results are reduced in fixed order, so the value never changes output).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .algebra import AlgebraRep, build_su2_irrep, build_sun_fundamental, rep_debug_dict
from .cartan import cartan_debug_dict, cartan_decompose, highest_weight_state
from .dynamics import (
    NoiseConfig,
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


def _read_config_file(path: str) -> dict:
    """Parse a key=value config file; '#' starts a comment."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{ln}: expected key=value, got {raw!r}")
                key, _, val = line.partition("=")
                out[key.strip().replace("-", "_")] = val.strip()
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err}") from err
    return out


_CONFIG_CASTS = {
    "algebra": str,
    "gamma": float,
    "dt": float,
    "time": float,
    "seed": int,
    "traj": int,
    "samples": int,
    "stride": int,
    "out": str,
    "ham": str,
    "bound": float,
    "init": str,
}


def _apply_config_file(args):
    """Fill unset flags from the config file; explicit flags take precedence."""
    if not getattr(args, "config", None):
        return args
    raw = _read_config_file(args.config)
    for key, text in raw.items():
        if key not in _CONFIG_CASTS:
            raise UsageError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:
            try:
                setattr(args, key, _CONFIG_CASTS[key](text))
            except ValueError as err:
                raise UsageError(f"bad value for config key {key!r}: {text!r}") from err
    return args


def _require(args, names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _steps_from(args) -> int:
    ratio = args.time / args.dt
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > 1e-9 * max(1.0, abs(ratio)):
        raise UsageError(
            f"--time {args.time} is not an integer multiple of --dt {args.dt}"
        )
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


def _initial_state(args, rep, cartan=None):
    mode = args.init or "haar"
    if mode == "haar":
        return haar_state(rep.dim_hilbert, args.seed)
    if mode == "highest":
        if cartan is None:
            cartan = cartan_decompose(rep)
        return highest_weight_state(cartan)
    raise UsageError(f"--init must be 'haar' or 'highest', got {mode!r}")


def _open_out(path):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


def _write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True)
    fh, close = _open_out(path)
    try:
        fh.write(text + "\n")
    finally:
        if close:
            fh.close()


def _write_csv(path, cols, table):
    """A header of column names, then one FLOAT_FMT line per row of table."""
    fmt = ",".join([FLOAT_FMT] * len(cols)) + "\n"
    fh, close = _open_out(path)
    try:
        fh.write(",".join(cols) + "\n")
        for row in table.tolist():
            fh.write(fmt % tuple(row))
    finally:
        if close:
            fh.close()


def _serialize_state(psi):
    return [[float(z.real), float(z.imag)] for z in np.asarray(psi, dtype=complex)]


def cmd_simulate(args) -> int:
    rep = parse_algebra(args.algebra)
    _require(args, ["gamma", "dt", "time", "seed", "out"])
    steps = _steps_from(args)
    cfg = NoiseConfig(gamma=args.gamma, dt=args.dt, steps=steps, seed=args.seed)
    stride = args.stride or 1
    ham = _parse_ham(args.ham, rep)
    cartan = cartan_decompose(rep) if (args.init == "highest") else None
    psi0 = _initial_state(args, rep, cartan)
    rec = simulate_trajectory(psi0, ham, rep, cfg, record_stride=stride)

    cols = ["t", "uncertainty", "purity", "cov_trace_norm", "drift"] + [
        f"x{k + 1}" for k in range(rep.dim_algebra)
    ]
    table = np.column_stack(
        [rec.times, rec.uncertainty, rec.purity, rec.cov_trace_norm, rec.drift, rec.expectations]
    )
    _write_csv(args.out, cols, table)
    return 0


def cmd_ensemble(args) -> int:
    rep = parse_algebra(args.algebra)
    _require(args, ["gamma", "dt", "time", "seed", "traj", "out"])
    steps = _steps_from(args)
    cfg = NoiseConfig(gamma=args.gamma, dt=args.dt, steps=steps, seed=args.seed)
    stride = args.stride or 1
    ham = _parse_ham(args.ham, rep)
    psi0 = _initial_state(args, rep)
    bound = args.bound if args.bound is not None else 0.05

    # the reference first: past the superoperator budget it fails at once
    _, times = _record_grid(steps, stride, cfg.dt)
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
    _require(args, ["seed", "out"])
    gamma = args.gamma if args.gamma is not None else 0.1
    _check_gamma(gamma)
    n = args.samples if args.samples is not None else 10000
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
            "state": _serialize_state(states[bad_idx]),
            "cov_trace_norm": float(tnorm[bad_idx]),
            "drift": float(drift[bad_idx]),
        }
    _write_json(args.out, report)
    return 0 if report["passed"] else 2


def cmd_bounds(args) -> int:
    rep = parse_algebra(args.algebra)
    _require(args, ["out"])
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
    }
    payload.update(cartan_debug_dict(cartan))
    if args.dump_algebra:
        payload["algebra_debug"] = rep_debug_dict(rep)
    _write_json(args.out, payload)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gcsloc",
        description=(
            "Weak-measurement localization onto generalized coherent states: "
            "stochastic trajectories, ensemble averages, and covariance-norm "
            "theorem scans over compact semisimple Lie algebras."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, traj=False, samples=False, bound=False, dump=False):
        p.add_argument(
            "--algebra",
            required=True,
            help="algebra spec: su2:two_j=N or suN:n=N",
        )
        p.add_argument("--gamma", type=float, default=None, help="measurement strength (default from config file, else required/0.1 for scans)")
        p.add_argument("--dt", type=float, default=None, help="integration step")
        p.add_argument("--time", type=float, default=None, help="total time T; T/dt must be integral")
        p.add_argument("--seed", type=int, default=None, help="base RNG seed")
        p.add_argument("--stride", type=int, default=None, help="record every this many steps (default 1)")
        p.add_argument("--ham", default=None, help="comma-separated Hamiltonian coefficients a1,..,aK (default: no Hamiltonian)")
        p.add_argument("--init", default=None, choices=["haar", "highest"], help="initial state: Haar-random (default) or the extremal weight state")
        p.add_argument("--out", default=None, help="output path ('-' for stdout)")
        p.add_argument("--config", default=None, help="key=value config file; explicit flags win")
        if traj:
            p.add_argument("--traj", type=int, default=None, help="number of trajectories")
        if samples:
            p.add_argument("--samples", type=int, default=None, help="number of Haar samples (default 10000)")
        if bound:
            p.add_argument("--bound", type=float, default=None, help="max allowed Frobenius distance (default 0.05)")
        if dump:
            p.add_argument("--dump-algebra", action="store_true", help="include generators and structure constants in the JSON")

    p_sim = sub.add_parser("simulate", help="single stochastic trajectory -> CSV")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ens = sub.add_parser("ensemble", help="trajectory average vs master equation -> CSV + JSON")
    common(p_ens, traj=True, bound=True)
    p_ens.set_defaults(func=cmd_ensemble)

    p_scan = sub.add_parser("theorem-scan", help="Haar scan of covariance norm and drift -> JSON")
    common(p_scan, samples=True)
    p_scan.set_defaults(func=cmd_theorem_scan)

    p_bounds = sub.add_parser("bounds", help="invariant constants and root data -> JSON")
    common(p_bounds, dump=True)
    p_bounds.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config_file(args)
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
