import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import decomposed
from gcsloc import cli, dynamics
from gcsloc.cli import FLOAT_FMT, main, parse_algebra
from gcsloc.dynamics import (
    NoiseConfig,
    _centred,
    _drift,
    _moments,
    _observe_batch,
    _purity,
    _tnorm,
    haar_state,
    scan_states,
    simulate_trajectory,
)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


# ------------------------------------------------------------------ bounds


def run_bounds(tmp_path, spec, extra=()):
    out = tmp_path / "bounds.json"
    rc = main(["bounds", "--algebra", spec, "--out", str(out), *extra])
    assert rc == 0
    return json.loads(out.read_text())


# delta_min and c, as in test_observables; the rank, positive roots and
# weights, K = rank + 2 n_positive and d = n_weights; the highest weight is
# the decomposition's
@pytest.mark.parametrize("spec, delta_min, c, rank, n_positive, n_weights", [
    ("su2:two_j=1", 0.5, 0.75, 1, 1, 2),
    ("su2:two_j=2", 1.0, 2.0, 1, 1, 3),
    ("suN:n=3", 1.0, 4.0 / 3.0, 2, 3, 3),
], ids=["spin-half", "spin1", "su3"])
def test_bounds_report(tmp_path, spec, delta_min, c, rank, n_positive, n_weights):
    payload = run_bounds(tmp_path, spec)
    assert payload["delta_min"] == pytest.approx(delta_min, abs=1e-12)
    assert payload["casimir_eigenvalue"] == pytest.approx(c, abs=1e-12)
    assert payload["rank"] == rank
    assert len(payload["positive_roots"]) == n_positive and len(payload["weights"]) == n_weights
    assert payload["dim_algebra"] == rank + 2 * n_positive and payload["dim_hilbert"] == n_weights
    assert np.allclose(payload["highest_weight"], decomposed(spec)[1].highest_weight, atol=1e-15)


def test_bounds_sun2_equals_su2(tmp_path):
    a = run_bounds(tmp_path, "suN:n=2")
    b = run_bounds(tmp_path, "su2:two_j=1")
    for key in ("delta_min", "casimir_eigenvalue", "normalization",
                "adjoint_casimir", "rank"):
        assert a[key] == pytest.approx(b[key], abs=1e-12), key


def test_bounds_dump_algebra(tmp_path):
    payload = run_bounds(tmp_path, "su2:two_j=1", extra=["--dump-algebra"])
    assert "algebra_debug" in payload
    assert payload["algebra_debug"]["dim_algebra"] == 3


def test_jsonable_refuses_what_is_not_an_array():
    with pytest.raises(TypeError, match="^object is not JSON serializable$"):
        cli._jsonable(object())


def test_parse_algebra_rejects_garbage():
    for bad, message in (
        ("su5:q=1", "unsupported algebra spec"),
        ("su2", "unsupported algebra spec"),
        ("su2:two_j=x", "bad algebra spec"),
        ("suN:n=", "bad algebra spec"),
        ("", "unsupported algebra spec"),
    ):
        with pytest.raises(cli.UsageError, match=f"^{message} {bad!r}"):
            parse_algebra(bad)


def test_bad_algebra_exits_1(tmp_path):
    rc = main(["bounds", "--algebra", "sp4:n=2", "--out", str(tmp_path / "x.json")])
    assert rc == 1


# ---------------------------------------------------------------- simulate


SIM_ARGS = [
    "simulate", "--algebra", "su2:two_j=2", "--gamma", "0.1", "--dt", "1e-3",
    "--time", "0.05", "--seed", "3",
]


def test_simulate_csv_layout(tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(SIM_ARGS + ["--out", str(out)])
    assert rc == 0
    header, data = read_csv(out)
    assert header == ["t", "uncertainty", "purity", "cov_trace_norm", "drift",
                      "x1", "x2", "x3"]
    assert data.shape == (51, 8)
    assert data[0, 0] == 0.0
    assert data[-1, 0] == pytest.approx(0.05, rel=1e-12)
    # drift column is nonpositive, uncertainty positive
    assert np.all(data[:, 4] <= 1e-12)
    assert np.all(data[:, 1] > 0)


def test_simulate_byte_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(SIM_ARGS + ["--out", str(a)]) == 0
    assert main(SIM_ARGS + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert main(SIM_ARGS[:-1] + ["4", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("ham", [None, "0.3,-0.2,0.5"])
def test_simulate_csv_formats_the_record(tmp_path, ham):
    # 301 records at stride 1 cross a record-buffer flush
    out = tmp_path / "traj.csv"
    argv = [
        "simulate", "--algebra", "su2:two_j=2", "--gamma", "0.1", "--dt", "1e-3",
        "--time", "0.3", "--seed", "3", "--stride", "1", "--out", str(out),
    ]
    assert main(argv + (["--ham", ham] if ham else [])) == 0
    rep = parse_algebra("su2:two_j=2")
    coeffs = None if ham is None else [float(x) for x in ham.split(",")]
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=300, seed=3)
    times, rows = simulate_trajectory(haar_state(3, 3), coeffs, rep, cfg)
    lines = ["t,uncertainty,purity,cov_trace_norm,drift,x1,x2,x3"]
    for t, row in zip(times, rows):
        lines.append(",".join(FLOAT_FMT % float(x) for x in [t, *row]))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_simulate_to_stdout_writes_the_file_bytes(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(SIM_ARGS + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(SIM_ARGS + ["--out", "-"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("flags, message", [
    (["--ham", "1,2"], "--ham needs 3 comma-separated values, got 2"),
    (["--ham", "1,x,3"], "bad --ham list '1,x,3'"),
    (["--ham="], "bad --ham list ''"),
], ids=["two-values", "not-a-number", "empty"])
def test_simulate_bad_ham_exits_1(tmp_path, capsys, flags, message):
    out = tmp_path / "x.csv"
    assert main(SIM_ARGS + flags + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_stride(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(SIM_ARGS + ["--stride", "10", "--out", str(out)])
    assert rc == 0
    _, data = read_csv(out)
    assert data.shape[0] == 6
    assert data[1, 0] == pytest.approx(0.01, rel=1e-12)


def test_simulate_gamma_zero_conserves_uncertainty(tmp_path):
    out = tmp_path / "u.csv"
    rc = main([
        "simulate", "--algebra", "su2:two_j=4", "--gamma", "0", "--dt", "1e-3",
        "--time", "1", "--seed", "5", "--ham", "0.3,-0.4,0.9",
        "--stride", "100", "--out", str(out),
    ])
    assert rc == 0
    _, data = read_csv(out)
    assert np.max(np.abs(data[:, 1] - data[0, 1])) < 1e-6


def test_simulate_highest_init_stays_extremal(tmp_path):
    out = tmp_path / "h.csv"
    rc = main([
        "simulate", "--algebra", "su2:two_j=2", "--gamma", "0.1", "--dt", "1e-3",
        "--time", "0.5", "--seed", "8", "--init", "highest",
        "--stride", "50", "--out", str(out),
    ])
    assert rc == 0
    _, data = read_csv(out)
    assert np.max(np.abs(data[:, 1] - 1.0)) < 5e-3


def test_simulate_missing_required_exits_1(tmp_path):
    rc = main(["simulate", "--algebra", "su2:two_j=2", "--gamma", "0.1",
               "--dt", "1e-3", "--time", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 1  # no --seed


def test_simulate_nonintegral_grid_exits_1(tmp_path):
    rc = main(["simulate", "--algebra", "su2:two_j=2", "--gamma", "0.1",
               "--dt", "3e-3", "--time", "0.01", "--seed", "0",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1


def test_simulate_unstable_step_exits_1(tmp_path):
    rc = main(["simulate", "--algebra", "su2:two_j=2", "--gamma", "1.0",
               "--dt", "0.1", "--time", "1", "--seed", "0",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1


# ---------------------------------------------------------------- ensemble


def test_ensemble_passes_and_reports(tmp_path):
    base = tmp_path / "ens"
    rc = main([
        "ensemble", "--algebra", "su2:two_j=2", "--gamma", "0.1", "--dt", "1e-3",
        "--time", "0.2", "--seed", "11", "--traj", "200", "--stride", "200",
        "--out", str(base),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "ens.json").read_text())
    assert summary["passed"] is True
    assert summary["max_distance"] < 0.05
    assert summary["n_traj"] == 200
    header, data = read_csv(tmp_path / "ens.csv")
    assert header == ["t", "frobenius_distance"]
    assert data.shape == (2, 2)
    assert data[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_ensemble_tight_bound_exits_2(tmp_path):
    base = tmp_path / "tight"
    rc = main([
        "ensemble", "--algebra", "su2:two_j=2", "--gamma", "0.1", "--dt", "1e-3",
        "--time", "0.2", "--seed", "11", "--traj", "20", "--stride", "200",
        "--bound", "1e-6", "--out", str(base),
    ])
    assert rc == 2
    summary = json.loads((tmp_path / "tight.json").read_text())
    assert summary["passed"] is False
    assert summary["max_distance"] > 1e-6


def test_ensemble_single_unitary_trajectory_is_exact(tmp_path):
    base = tmp_path / "one"
    rc = main([
        "ensemble", "--algebra", "su2:two_j=2", "--gamma", "0", "--dt", "1e-3",
        "--time", "0.3", "--seed", "4", "--traj", "1", "--ham", "0.5,0.1,-0.2",
        "--stride", "300", "--out", str(base),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "one.json").read_text())
    assert summary["max_distance"] < 1e-10


def test_ensemble_at_d_65_exits_0(tmp_path):
    # d = 65 is past the d <= 45 a dense (d^2, d^2) reference flow allowed;
    # the ensemble stays within the default bound 0.05 of it (max 0.016)
    rc = main([
        "ensemble", "--algebra", "su2:two_j=64", "--gamma", "0.01", "--dt", "1e-3",
        "--time", "0.01", "--seed", "3", "--traj", "256", "--init", "highest",
        "--out", str(tmp_path / "big"),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "big.json").read_text())
    assert summary["passed"]
    assert (tmp_path / "big.csv").exists()


@pytest.mark.parametrize("traj", ["0", "-3"])
def test_ensemble_traj_below_one_exits_1(tmp_path, capsys, monkeypatch, traj):
    def flow(*args):
        raise AssertionError("the reference flow ran before --traj was checked")

    monkeypatch.setattr(cli, "lindblad_expm_evolve", flow)
    rc = main([
        "ensemble", "--algebra", "su2:two_j=2", "--gamma", "0.1", "--dt", "1e-3",
        "--time", "0.01", "--seed", "3", "--traj", traj, "--out", str(tmp_path / "ens"),
    ])
    assert rc == 1
    assert "--traj" in capsys.readouterr().err
    assert not (tmp_path / "ens.csv").exists()


@pytest.mark.parametrize("bound", ["nan", "inf", "-1"])
def test_ensemble_bound_not_finite_nonnegative_exits_1(tmp_path, capsys, monkeypatch, bound):
    def run(*args):
        raise AssertionError("the ensemble ran before --bound was checked")

    monkeypatch.setattr(cli, "lindblad_expm_evolve", run)
    monkeypatch.setattr(cli, "ensemble_average", run)
    rc = main([
        "ensemble", "--algebra", "su2:two_j=2", "--gamma", "0.1", "--dt", "1e-3",
        "--time", "0.01", "--seed", "3", "--traj", "4", f"--bound={bound}",
        "--out", str(tmp_path / "ens"),
    ])
    assert rc == 1
    assert "error: --bound must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "ens.json").exists()


@pytest.mark.parametrize("command", ["simulate", "ensemble"])
@pytest.mark.parametrize("dt, time", [("0", "0.01"), ("nan", "0.01"), ("1e-3", "inf")])
def test_degenerate_time_grid_exits_1(tmp_path, capsys, command, dt, time):
    extra = ["--traj", "2"] if command == "ensemble" else []
    rc = main([
        command, "--algebra", "su2:two_j=2", "--gamma", "0.1", "--dt", dt,
        "--time", time, "--seed", "3", "--out", str(tmp_path / "x"), *extra,
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert ("dt must be finite" if time != "inf" else "--time must be finite") in err


@pytest.mark.parametrize("command", ["simulate", "ensemble"])
@pytest.mark.parametrize("time", ["0", "-1"])
def test_nonpositive_time_exits_1(tmp_path, capsys, command, time):
    # both are integer multiples of --dt; they are refused for their sign
    extra = ["--traj", "2"] if command == "ensemble" else []
    rc = main([
        command, "--algebra", "su2:two_j=2", "--gamma", "0.1", "--dt", "1e-3",
        f"--time={time}", "--seed", "3", "--out", str(tmp_path / "x"), *extra,
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: --time must be positive, got {float(time)}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "ensemble"])
@pytest.mark.parametrize("time", ["1e-13", "5e-13"])
def test_time_within_tolerance_of_no_step_exits_1(tmp_path, capsys, command, time):
    # --time / --dt is within the 1e-9 tolerance of 0: a whole number of
    # steps, but none
    extra = ["--traj", "2"] if command == "ensemble" else []
    rc = main([
        command, "--algebra", "su2:two_j=2", "--gamma", "0.1", "--dt", "1e-3",
        "--time", time, "--seed", "3", "--out", str(tmp_path / "x"), *extra,
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: --time {float(time)} is shorter than one --dt 0.001 step: the run has no step\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "ensemble"])
@pytest.mark.parametrize("time", ["3e-4", "1.5e-3"])
def test_time_off_the_step_grid_exits_1(tmp_path, capsys, command, time):
    extra = ["--traj", "2"] if command == "ensemble" else []
    rc = main([
        command, "--algebra", "su2:two_j=2", "--gamma", "0.1", "--dt", "1e-3",
        "--time", time, "--seed", "3", "--out", str(tmp_path / "x"), *extra,
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: --time {float(time)} is not an integer multiple of --dt 0.001\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "ensemble"])
def test_step_count_overflowing_to_inf_exits_1(tmp_path, capsys, command):
    # 1e300 / 1e-300 overflows to inf, which round() cannot turn into a count
    extra = ["--traj", "2"] if command == "ensemble" else []
    rc = main([
        command, "--algebra", "su2:two_j=2", "--gamma", "0.1", "--dt", "1e-300",
        "--time", "1e300", "--seed", "3", "--out", str(tmp_path / "x"), *extra,
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is not a finite step count" in err
    assert not list(tmp_path.iterdir())


# ------------------------------------------------------------- theorem-scan


def test_theorem_scan_su2(tmp_path):
    out = tmp_path / "scan.json"
    rc = main([
        "theorem-scan", "--algebra", "su2:two_j=3", "--samples", "2000",
        "--seed", "19", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    # extremal value 2 j^2 at j = 3/2
    assert report["cov_trace_norm_at_extremal"] == pytest.approx(4.5, abs=1e-10)
    assert report["cov_trace_norm_min"] >= 4.5 - 1e-9
    assert report["drift_max"] <= 1e-9
    assert report["passed"] is True
    assert report["violations"] is None
    assert report["samples"] == 2000


def test_theorem_scan_su3(tmp_path):
    out = tmp_path / "scan3.json"
    rc = main([
        "theorem-scan", "--algebra", "suN:n=3", "--samples", "1000",
        "--seed", "23", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["cov_trace_norm_at_extremal"] == pytest.approx(1.0, abs=1e-10)
    assert report["cov_trace_norm_min"] >= 1.0 - 1e-9


@pytest.mark.parametrize(
    "kind, column, value",
    [("positive_drift", 3, 1.0), ("cov_trace_norm_below_extremal", 2, 0.0)],
)
def test_theorem_scan_reports_a_violation(tmp_path, monkeypatch, kind, column, value):
    # sample 17 of 50 is given a positive drift, or a T below the orbit's 1
    real = cli._observe_batch

    def observed(states, rep, gamma):
        rows = real(states, rep, gamma)
        if len(states) == 50:
            rows[17, column] = value
        return rows

    monkeypatch.setattr(cli, "_observe_batch", observed)
    out = tmp_path / "scan.json"
    rc = main([
        "theorem-scan", "--algebra", "suN:n=3", "--samples", "50",
        "--seed", "31", "--out", str(out),
    ])
    assert rc == 2
    report = json.loads(out.read_text())
    assert report["passed"] is False
    bad = report["violations"]
    assert bad["kind"] == kind and bad["sample_index"] == 17
    assert bad["cov_trace_norm" if column == 2 else "drift"] == value
    psi = scan_states(3, 50, 31)[17]
    assert bad["state"] == [[z.real, z.imag] for z in psi.tolist()]


@pytest.mark.parametrize("gamma", ["nan", "-0.1"])
def test_theorem_scan_bad_gamma_exits_1(tmp_path, gamma):
    rc = main([
        "theorem-scan", "--algebra", "su2:two_j=2", "--samples", "10", "--seed", "1",
        "--gamma", gamma, "--out", str(tmp_path / "scan.json"),
    ])
    assert rc == 1


def test_theorem_scan_blocks_agree_with_one_batch():
    rep = parse_algebra("suN:n=6")
    states = scan_states(rep.dim_hilbert, 600, 29)
    tnorm, drift = _observe_batch(states, rep, 0.1)[:, 2:4].T
    pf, z, v = _moments(states, rep)
    one_tnorm = _tnorm(_centred(pf, z, v))
    one_drift = _drift(rep, 0.1, _purity(v), one_tnorm)
    assert np.max(np.abs(tnorm - one_tnorm)) <= 1e-12
    assert np.max(np.abs(drift - one_drift)) <= 1e-12
    assert np.argmin(tnorm) == np.argmin(one_tnorm)
    assert np.argmax(drift) == np.argmax(one_drift)


def test_theorem_scan_checks_the_quadratic_invariant(tmp_path, monkeypatch, capsys):
    real = dynamics._second
    monkeypatch.setattr(dynamics, "_second", lambda z: real(z) + 1e-6)
    rc = main([
        "theorem-scan", "--algebra", "su2:two_j=2", "--samples", "10", "--seed", "1",
        "--out", str(tmp_path / "scan.json"),
    ])
    assert rc == 2
    assert "quadratic invariant drifted" in capsys.readouterr().err


# ----------------------------------------------------------------- config


def test_config_file_fills_missing_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# scan settings\n"
        "algebra = su2:two_j=2\n"
        "gamma = 0.1\n"
        "dt = 1e-3\n"
        "time = 0.05\n"
        "seed = 3\n"
    )
    out = tmp_path / "from_cfg.csv"
    rc = main(["simulate", "--algebra", "su2:two_j=2", "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    ref = tmp_path / "ref.csv"
    assert main(SIM_ARGS + ["--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_config_equals_form_is_the_spaced_form(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 0.1\ndt = 1e-3\ntime = 0.05\nseed = 3\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    head = ["simulate", "--algebra", "su2:two_j=2"]
    assert main(head + [f"--config={cfg}", "--out", str(a)]) == 0
    assert main(head + ["--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_line_without_equals_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 0.1\nseed 3\n")
    out = tmp_path / "x.csv"
    assert main(SIM_ARGS + ["--config", str(cfg), "--out", str(out)]) == 1
    assert f"{cfg}:2: expected key=value" in capsys.readouterr().err
    assert not out.exists()


def test_explicit_flag_beats_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 0.1\ndt = 1e-3\ntime = 0.05\nseed = 3\n")
    a = tmp_path / "a.csv"
    rc = main(["simulate", "--algebra", "su2:two_j=2", "--config", str(cfg),
               "--seed", "4", "--out", str(a)])
    assert rc == 0
    ref3 = tmp_path / "r3.csv"
    ref4 = tmp_path / "r4.csv"
    assert main(SIM_ARGS + ["--out", str(ref3)]) == 0
    assert main(SIM_ARGS[:-1] + ["4", "--out", str(ref4)]) == 0
    assert a.read_bytes() == ref4.read_bytes()
    assert a.read_bytes() != ref3.read_bytes()


def test_unknown_config_key_exits_1(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gamme = 0.1\n")
    rc = main(["simulate", "--algebra", "su2:two_j=2", "--config", str(cfg),
               "--out", "-"])
    assert rc == 1


def test_config_line_matches_flag_for_negative_values(tmp_path):
    cfg = tmp_path / "ham.cfg"
    cfg.write_text("algebra = su2:two_j=2\nham = -0.3,0.2,0.5\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(SIM_ARGS + ["--ham=-0.3,0.2,0.5", "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg)] + SIM_ARGS[3:] + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_naming_another_exits_1(tmp_path, capsys):
    # the line would become a --config flag that is parsed but never read
    (tmp_path / "other.cfg").write_text("seed = 4\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algebra = su2:two_j=2\ngamma = 0.1\ndt = 1e-3\ntime = 0.05\n"
                   "seed = 3\nconfig = other.cfg\n")
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"{cfg}:6: a config file cannot name another" in capsys.readouterr().err
    assert not out.exists()


def test_config_flag_without_value_exits_1(capsys):
    assert main(SIM_ARGS + ["--out", "-", "--config"]) == 1
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("argv,config", [
    (["bounds", "--algebra", "su2:two_j=2", "--gamma", "0.1"], None),
    (["theorem-scan", "--algebra", "su2:two_j=2", "--seed", "1", "--ham", "1,2,3"], None),
    (SIM_ARGS, "samples = 10\n"),  # a theorem-scan key
    (["bounds", "--algebra", "su2:two_j=2"], "seed = 3\n"),
], ids=["bounds-gamma", "scan-ham", "simulate-samples-key", "bounds-seed-key"])
def test_flags_a_command_does_not_read_exit_1(tmp_path, argv, config):
    extra = []
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        extra = ["--config", str(tmp_path / "run.cfg")]
    assert main(argv + extra + ["--out", str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x").exists()


def test_simulate_zero_stride_exits_1(tmp_path):
    assert main(SIM_ARGS + ["--stride", "0", "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_theorem_scan_samples_below_one_exits_1(tmp_path, capsys, samples):
    rc = main([
        "theorem-scan", "--algebra", "su2:two_j=2", "--samples", samples, "--seed", "1",
        "--out", str(tmp_path / "scan.json"),
    ])
    assert rc == 1
    assert "--samples" in capsys.readouterr().err


def test_missing_config_file_exits_1():
    rc = main(["simulate", "--algebra", "su2:two_j=2",
               "--config", "/nonexistent/path.cfg", "--out", "-"])
    assert rc == 1


def test_usage_error_exits_1():
    assert main(["simulate"]) == 1  # missing --algebra
    assert main(["frobnicate"]) == 1  # unknown subcommand


def test_cached_parser_matches_fresh_parsers(tmp_path, monkeypatch):
    (tmp_path / "flags.cfg").write_text("gamma=0.2\ndt=1e-3\ntime=0.02\nseed=5\nham=0.1,-0.3,0.2\n")
    traj = ["--algebra", "su2:two_j=2", "--gamma", "0.1", "--dt", "1e-3", "--time", "0.02", "--seed", "3"]
    runs = [
        ["simulate", *traj, "--ham=0.3,-0.2,0.5"],
        ["bounds", "--algebra", "suN:n=3"],
        ["simulate", "--algebra", "su2:two_j=2"],  # usage error: exit 1, no output
        ["simulate", "--algebra", "su2:two_j=2", "--config", "../flags.cfg", "--seed", "6"],
        ["theorem-scan", "--algebra", "su2:two_j=2", "--seed", "4", "--samples", "50"],
        ["ensemble", *traj, "--traj", "4", "--stride", "10", "--bound", "1"],
        ["simulate", *traj],
    ]

    def run_all(fresh):
        (tmp_path / fresh).mkdir()
        monkeypatch.chdir(tmp_path / fresh)
        out = []
        for j, argv in enumerate(runs):
            if fresh == "fresh":
                cli.build_parser.cache_clear()
            rc = main([*argv, "--out", f"o{j}"])
            out.append((rc, {p.name: p.read_bytes() for p in sorted(Path().glob(f"o{j}*"))}))
        return out

    cached = run_all("cached")
    assert [rc for rc, _ in cached] == [0, 0, 1, 0, 0, 0, 0]
    assert cached == run_all("fresh")
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("order", ["C", "F"])
def test_write_csv_matches_per_row_formatting(tmp_path, order):
    rng = np.random.default_rng(41)
    table = rng.standard_normal((10_000, 5)) * 10.0 ** rng.integers(-300, 300, (10_000, 5))
    table[[0, 17, 4095, 4096, 9999], [0, 1, 2, 3, 4]] = [np.nan, np.inf, -np.inf, -0.0, 1e-300]
    table = np.asarray(table, order=order)
    cols = ["a", "b", "c", "d", "e"]
    expected = "a,b,c,d,e\n" + "".join(
        ",".join(FLOAT_FMT % x for x in row) + "\n" for row in table.tolist()
    )
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), cols, table)
    assert path.read_bytes() == expected.encode()


# ------------------------------------------------------------- entry point


def test_installed_entry_point(tmp_path):
    out = tmp_path / "ep.json"
    proc = subprocess.run(
        [sys.executable, "-m", "gcsloc.cli", "bounds", "--algebra",
         "su2:two_j=2", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["delta_min"] == pytest.approx(1.0, abs=1e-12)


def test_runtime_does_not_import_scipy():
    # pytest itself has scipy loaded, so the script runs in a fresh interpreter
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(root / "tests" / "numpy_only.py")], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
