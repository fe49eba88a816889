"""Every run-time path of the package on numpy alone, scipy not loaded.

numpy is the package's one runtime dependency; scipy is only the tests'
oracle.  This script imports neither pytest, scipy nor the tests'
conftest, and pytest does not collect it.  Run it as

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python -W error tests/numpy_only.py

-W error turns any warning on these paths (a numpy overflow or invalid
value) into a failure.  Every run on several processes needs BLAS pinned
to one thread, as README's Determinism section asks of a caller that
forks.  The CLI runs, each a ``gcsloc.cli.main`` call in one temporary
directory with GCSLOC_THREADS set for it, cover:

- every subcommand; bounds' JSON of complex generators as [real, imag]
  pairs; and each of the three routes ``_stepper`` picks: simulate's
  lone-row step (on su(6) over 602 steps at stride 7, so its 256-step
  noise chunks end between records), the su(6) ensemble's completeness
  route for the defining su(N) (B = sum_k dxi_k X_k applied to psi) on a
  256-state block and its lone-row step on the last block, and the stacked
  X_k psi of any other irrep in the extremal-bias probe's shape, 128 spin-2
  trajectories from the highest weight over 1000 steps in 256-step noise
  chunks;
- an su(3) ensemble of five blocks on three processes, one full round of
  three and a partial round of two;
- the benchmark's su(6) ensemble of 512 trajectories, and the same
  ensemble on spin 1/2 (the defining su(2)), each on one process and on
  two, whose CSVs must be the same bytes, as the output may not depend on
  the process count.

Then coherent states and the one-state observables, which read a state as
one row, on spin 2 and su(6); ``simulate_trajectory``'s (times, rows) on
su(6) with an H, the rows of the one-trajectory ``ensemble_observables``;
and the Cartan alignment of Haar states on spin 2 (root-triple sweeps) and
su(6) (the lowest-weight vector), with the T split and the root-pair
closed form in that gauge.
"""

import os
import sys
import tempfile
from pathlib import Path

import numpy as np

import gcsloc.cli
from gcsloc import (
    NoiseConfig,
    align_expectation_to_cartan,
    cartan_decompose,
    cartan_split_sums,
    covariance_matrix,
    covariance_trace_norm,
    ensemble_observables,
    expectation_vector,
    generate_gcs,
    haar_state,
    localization_drift,
    root_pair_closed_form,
    simulate_trajectory,
)

RUN = ["--gamma", "0.1", "--dt", "1e-3"]
ENS6 = ["--time", "0.25", "--seed", "1536", "--traj", "512", "--stride", "50", "--bound", "1"]
RUNS = [  # (GCSLOC_THREADS, argv)
    (1, ["bounds", "--algebra", "suN:n=3", "--out", "-"]),
    (1, ["bounds", "--algebra", "su2:two_j=3", "--dump-algebra", "--out", "-"]),
    (1, ["simulate", "--algebra", "su2:two_j=2", "--init", "highest", "--stride", "1", *RUN,
         "--time", "0.1", "--seed", "1", "--out", "-"]),
    (1, ["simulate", "--algebra", "suN:n=3", "--init", "haar", "--ham", "0.2,0.1,-0.3,0,0.4,0,-0.1,0.2",
         "--stride", "7", *RUN, "--time", "0.105", "--seed", "1", "--out", "-"]),
    (1, ["simulate", "--algebra", "suN:n=6", "--init", "haar", "--stride", "7", *RUN, "--time", "0.602",
         "--seed", "1", "--out", "-"]),
    (1, ["simulate", "--algebra", "su2:two_j=2", *RUN, "--time", "0.01", "--seed", "2", "--ham", "0.3,-0.2,0.5",
         "--out", "sim"]),
    (1, ["theorem-scan", "--algebra", "suN:n=3", "--samples", "200", "--seed", "1", "--out", "-"]),
    (1, ["theorem-scan", "--algebra", "su2:two_j=4", "--samples", "50", "--seed", "1", "--out", "scan"]),
    (1, ["ensemble", "--algebra", "suN:n=3", *RUN, "--time", "0.05", "--seed", "1", "--traj", "64", "--stride", "10",
         "--bound", "1", "--out", "ens"]),
    (1, ["ensemble", "--algebra", "suN:n=3", *RUN, "--time", "0.01", "--seed", "3", "--traj", "20", "--stride", "10",
         "--ham", "0.1,0,0,0,0,0,0,0.2", "--out", "ensh"]),
    (1, ["ensemble", "--algebra", "suN:n=6", *RUN, "--time", "0.05", "--seed", "1", "--traj", "257", "--stride", "10",
         "--bound", "1", "--out", "ens6"]),
    (1, ["ensemble", "--algebra", "su2:two_j=4", "--init", "highest", *RUN, "--time", "1", "--seed", "1",
         "--traj", "128", "--stride", "1", "--bound", "1", "--out", "probe"]),
    (3, ["ensemble", "--algebra", "suN:n=3", *RUN, "--time", "0.05", "--seed", "1", "--traj", "1100",
         "--stride", "10", "--bound", "1", "--out", "ens3"]),
    *(
        (p, ["ensemble", "--algebra", spec, *RUN, *ENS6, "--out", f"{name}p{p}"])
        for p in (1, 2)
        for spec, name in (("suN:n=6", "ens6"), ("su2:two_j=1", "ens2"))
    ),
]


def main():
    assert "numpy.random" not in sys.modules  # drawn on first use, not on import
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for threads, argv in RUNS:
                os.environ["GCSLOC_THREADS"] = str(threads)
                assert gcsloc.cli.main(argv) == 0, argv
            for name in ("ens6", "ens2"):
                assert Path(f"{name}p1.csv").read_bytes() == Path(f"{name}p2.csv").read_bytes(), name
        finally:
            os.chdir(home)

    for spec in ("su2:two_j=4", "suN:n=6"):
        rep = gcsloc.cli.parse_algebra(spec)
        psi = generate_gcs(rep, cartan_decompose(rep), np.linspace(-1.0, 1.0, rep.dim_algebra))
        assert abs(localization_drift(psi, rep, 0.1)) < 1e-9, spec
        t, m, v = covariance_trace_norm(psi, rep), covariance_matrix(psi, rep), expectation_vector(psi, rep)
        assert abs(t - np.sum(m * m)) < 1e-9 * t and v.shape == (rep.dim_algebra,), spec
    rep, psi = gcsloc.cli.parse_algebra("suN:n=6"), haar_state(6, 3)
    h, cfg = np.linspace(-0.5, 0.5, rep.dim_algebra), NoiseConfig(gamma=0.1, dt=1e-3, steps=70, seed=3)
    times, rows = simulate_trajectory(psi, h, rep, cfg, 7)
    assert rows.shape == (len(times), 4 + rep.dim_algebra)
    assert np.array_equal(rows, ensemble_observables(psi, h, rep, cfg, 1, 7)[1][0])
    for spec in ("su2:two_j=4", "suN:n=6"):
        rep = gcsloc.cli.parse_algebra(spec)
        cartan = cartan_decompose(rep)
        for seed in range(4):
            out = align_expectation_to_cartan(haar_state(rep.dim_hilbert, seed), rep, cartan)
            assert np.linalg.norm(cartan.basis_rotation[cartan.rank :] @ expectation_vector(out, rep)) < 1e-10, spec
            same = cartan_split_sums(out, rep, cartan).same_line_block
            assert abs(root_pair_closed_form(out, cartan) - same) <= 1e-8 * max(1.0, same), spec
            assert spec != "suN:n=6" or np.array_equal(out, cartan.weight_basis[:, -1])

    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, loaded


if __name__ == "__main__":
    main()
