"""End-to-end acceptance suite for the localization machinery.

Each test settles one headline claim at its stated tolerance and registers a
single pass/fail line (printed in the terminal summary, see conftest):

1. The trajectory-averaged projector tracks the master-equation flow.
2. Free measurement localizes onto the coherent orbit at long times.
3. An extremal initial state stays extremal; refining dt tightens the bound.
4. Haar scans never find a squared covariance norm below the orbit value.
5. The uncertainty drift is nonpositive everywhere and zero on the orbit.
6. Closed-system evolution conserves the total uncertainty.
7. Moment identities, the Cartan-sector partition, and weight formulas hold.
8. The mean one-step uncertainty change reproduces the drift functional.
"""

import numpy as np
import pytest

from conftest import algebra, decomposed, record_criterion, reference_moments
from gcsloc import dynamics
from gcsloc.algebra import build_su2_irrep
from gcsloc.cartan import (
    generate_gcs,
    highest_weight_state,
    weight_string,
)
from gcsloc.dynamics import (
    NoiseConfig,
    ensemble_average,
    ensemble_observables,
    haar_state,
    haar_states,
    lindblad_expm_evolve,
    scan_states,
    simulate_trajectory,
    snlse_step,
    stream_rng,
)
from gcsloc.observables import (
    cartan_split_sums,
    covariance_trace_norm,
    generalized_purity,
    localization_drift,
    total_uncertainty,
    uncertainty_bounds,
)

GAMMA = 0.1
DT = 1e-3

ENSEMBLE_SEED = 20240
LOCALIZE_SEED = 31100
REFINE_SEED = 47000
SCAN_SEED = 52800
CLOSED_SEED = 61500
IDENTITY_SEED = 73000
DRIFT_SEED = 88200


# the irreps of the scans and the identity checks
ALGEBRAS = ("su2:two_j=2", "su2:two_j=3", "su2:two_j=4", "suN:n=3")


def batch_moments(states, rep, gamma):
    """(purity, tnorm, drift) of rows of states, from ``reference_moments``."""
    v, m = reference_moments(states, rep)
    purity, tnorm = np.sum(v * v, axis=1), np.sum(m * m, axis=(1, 2))
    return purity, tnorm, 2.0 * gamma * (rep.adjoint_casimir * purity - tnorm)


@pytest.fixture(scope="module")
def haar_scans():
    """10000 Haar states per algebra with their scan moments (gamma = 0.1)."""
    out = {}
    for name in ALGEBRAS:
        rep = algebra(name)
        states = scan_states(rep.dim_hilbert, 10000, SCAN_SEED)
        out[name] = (states, batch_moments(states, rep, GAMMA))
    return out


def test_criterion_1_ensemble_tracks_master_equation(monkeypatch):
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 2000)  # each ensemble in one or two blocks
    rep = build_su2_irrep(2)
    psi0 = haar_state(3, ENSEMBLE_SEED)
    rho0 = np.outer(psi0, psi0.conj())
    steps = 5000  # T = 5

    def max_distance(n_traj):
        cfg = NoiseConfig(gamma=GAMMA, dt=DT, steps=steps, seed=ENSEMBLE_SEED)
        times, rho_mc = ensemble_average(psi0, None, rep, cfg, n_traj, record_stride=10)
        rho_ref = lindblad_expm_evolve(rho0, None, rep, GAMMA, times)
        dist = np.linalg.norm((rho_mc - rho_ref).reshape(len(times), -1), axis=1)
        return float(np.max(dist))

    d2000 = max_distance(2000)
    d4000 = max_distance(4000)
    ok = d2000 < 0.05 and d4000 < d2000
    line = record_criterion(
        1,
        ok,
        "ensemble projector tracks the master equation "
        f"(max Frobenius distance {d2000:.4f} at 2000 trajectories, bound 0.05; "
        f"{d4000:.4f} at 4000)",
    )
    print(line)
    assert d2000 < 0.05
    assert d4000 < d2000


def test_criterion_2_long_time_localization():
    rep = build_su2_irrep(4)  # j = 2: delta_min = 2, purity limit 4
    n_runs = 20
    steps = 100000  # T = 100
    initials = np.stack(
        [haar_state(5, LOCALIZE_SEED + i) for i in range(n_runs)]
    )
    cfg = NoiseConfig(gamma=GAMMA, dt=DT, steps=steps, seed=LOCALIZE_SEED)
    times, rows = ensemble_observables(
        initials, None, rep, cfg, n_runs, record_stride=steps
    )
    final_delta = rows[:, -1, 0]
    final_purity = rows[:, -1, 1]
    dev_delta = float(np.max(np.abs(final_delta - 2.0)))
    dev_purity = float(np.max(np.abs(final_purity - 4.0)))
    ok = dev_delta < 1e-2 and dev_purity < 1e-2
    line = record_criterion(
        2,
        ok,
        "free measurement localizes onto the coherent orbit "
        f"(20 runs to T=100: max |uncertainty - 2| = {dev_delta:.2e}, "
        f"max |purity - 4| = {dev_purity:.2e}, tolerance 1e-2)",
    )
    print(line)
    assert dev_delta < 1e-2
    assert dev_purity < 1e-2


def test_criterion_3_extremal_state_stays_extremal():
    rep, cartan = decomposed("su2:two_j=2")  # j = 1: delta_min = 1
    hw = highest_weight_state(cartan)
    steps = 5000  # T = 5
    z = stream_rng(REFINE_SEED, 0).standard_normal((steps, 3))
    w = stream_rng(REFINE_SEED, 3).standard_normal((steps, 3))

    def max_deviation(dt, unit_noise):
        amp = np.sqrt(2.0 * GAMMA * dt)
        psi = hw
        dev = 0.0
        for s in range(unit_noise.shape[0]):
            psi = snlse_step(psi, None, rep, GAMMA, dt, amp * unit_noise[s])
            dev = max(dev, abs(total_uncertainty(psi, rep) - 1.0))
        return dev

    # common-noise refinement: each coarse increment splits into two fine
    # ones whose sum reproduces it
    fine = np.empty((2 * steps, 3))
    fine[0::2] = (z + w) / np.sqrt(2.0)
    fine[1::2] = (z - w) / np.sqrt(2.0)

    dev_coarse = max_deviation(DT, z)
    dev_fine = max_deviation(DT / 2.0, fine)
    ok = dev_coarse < 5e-3 and dev_fine < dev_coarse
    line = record_criterion(
        3,
        ok,
        "extremal initial state stays extremal "
        f"(max |uncertainty - 1| = {dev_coarse:.2e} at dt=1e-3, bound 5e-3; "
        f"{dev_fine:.2e} after halving dt, ratio {dev_fine / dev_coarse:.2f})",
    )
    print(line)
    assert dev_coarse < 5e-3
    assert dev_fine < dev_coarse


def test_criterion_4_covariance_norm_minimized_on_orbit(haar_scans):
    worst_margin = np.inf
    extremal_values = {}
    for name in ALGEBRAS:
        rep, cartan = decomposed(name)
        states, (purity, tnorm, drift) = haar_scans[name]
        extremal = covariance_trace_norm(highest_weight_state(cartan), rep)
        extremal_values[name] = extremal
        worst_margin = min(worst_margin, float(np.min(tnorm) - extremal))

    # closed forms of the orbit value: 2 j^2 for the spin algebras, and the
    # shared value of every pure state in the defining representation
    assert extremal_values["su2:two_j=2"] == pytest.approx(2.0, abs=1e-10)
    assert extremal_values["su2:two_j=3"] == pytest.approx(4.5, abs=1e-10)
    assert extremal_values["su2:two_j=4"] == pytest.approx(8.0, abs=1e-10)
    assert extremal_values["suN:n=3"] == pytest.approx(1.0, abs=1e-10)

    # spin-1/2 control: a single orbit, so the norm is constant
    rep_half = build_su2_irrep(1)
    states_half = scan_states(2, 10000, SCAN_SEED)
    _, tnorm_half, _ = batch_moments(states_half, rep_half, GAMMA)
    const_dev = float(np.max(np.abs(tnorm_half - 0.5)))

    ok = worst_margin >= -1e-9 and const_dev <= 1e-10
    line = record_criterion(
        4,
        ok,
        "squared covariance norm is minimized on the coherent orbit "
        f"(10000 Haar states x 4 algebras, worst margin {worst_margin:.2e} "
        f">= -1e-9; spin-1/2 constant to {const_dev:.1e})",
    )
    print(line)
    assert worst_margin >= -1e-9
    assert const_dev <= 1e-10


def test_criterion_5_drift_nonpositive_zero_on_orbit(haar_scans):
    drift_max = -np.inf
    for name in ALGEBRAS:
        _, (_, _, drift) = haar_scans[name]
        drift_max = max(drift_max, float(np.max(drift)))

    gcs_dev = 0.0
    for name in ALGEBRAS:
        rep, cartan = decomposed(name)
        rng = np.random.default_rng(SCAN_SEED)
        for _ in range(100):
            psi = generate_gcs(rep, cartan, rng.uniform(-3, 3, rep.dim_algebra))
            gcs_dev = max(gcs_dev, abs(localization_drift(psi, rep, GAMMA)))

    ok = drift_max <= 1e-9 and gcs_dev <= 1e-9
    line = record_criterion(
        5,
        ok,
        "uncertainty drift is nonpositive and vanishes on the orbit "
        f"(scan max {drift_max:.2e} <= 1e-9; 100 coherent states per algebra, "
        f"max |drift| = {gcs_dev:.2e})",
    )
    print(line)
    assert drift_max <= 1e-9
    assert gcs_dev <= 1e-9


def test_criterion_6_closed_system_conserves_uncertainty():
    rep = build_su2_irrep(4)  # j = 2
    rng = np.random.default_rng(CLOSED_SEED)
    ham = rng.uniform(-1.0, 1.0, 3)
    cfg = NoiseConfig(gamma=0.0, dt=DT, steps=10000, seed=CLOSED_SEED)  # T = 10
    rec = simulate_trajectory(
        haar_state(5, CLOSED_SEED), ham, rep, cfg, record_stride=10
    )
    dev = float(np.max(np.abs(rec.uncertainty - rec.uncertainty[0])))
    ok = dev < 1e-6
    line = record_criterion(
        6,
        ok,
        "closed-system evolution conserves the total uncertainty "
        f"(random Hamiltonian, T=10: max drift {dev:.2e} < 1e-6)",
    )
    print(line)
    assert dev < 1e-6


def test_criterion_7_moment_identities_and_weight_formulas():
    sum_rule_dev = 0.0
    casimir_dev = 0.0
    split_dev = 0.0
    for name in ALGEBRAS:
        rep, cartan = decomposed(name)
        states = haar_states(rep.dim_hilbert, 1000, IDENTITY_SEED)
        y = np.einsum("kab,nb->nka", rep.generators, states)
        second_sum = np.real(np.einsum("nka,nka->n", y.conj(), y))
        casimir_dev = max(
            casimir_dev,
            float(np.max(np.abs(second_sum - rep.casimir_eigenvalue))),
        )
        for psi in states:
            total = total_uncertainty(psi, rep) + generalized_purity(psi, rep)
            sum_rule_dev = max(
                sum_rule_dev, abs(total - rep.casimir_eigenvalue)
            )
            split = cartan_split_sums(psi, rep, cartan)
            split_dev = max(
                split_dev,
                abs(split.total - covariance_trace_norm(psi, rep)),
                abs(
                    split.cartan_block
                    + split.mixed_block
                    + split.same_line_block
                    + split.cross_line_block
                    - split.total
                ),
            )

    weight_dev = 0.0
    for two_j in range(1, 7):  # spins up to j = 3
        cartan = decomposed(f"su2:two_j={two_j}")[1]
        j = two_j / 2.0
        for s in range(two_j + 1):
            jj, mm = weight_string(cartan, s, 0)
            weight_dev = max(weight_dev, abs(jj - j), abs(mm - (j - s)))
    cartan3 = decomposed("suN:n=3")[1]
    for root in range(cartan3.n_positive):
        for s in range(3):
            jj, mm = weight_string(cartan3, s, root)
            alpha = cartan3.positive_roots[root]
            pairing = float(alpha @ cartan3.weights[s]) / float(alpha @ alpha)
            weight_dev = max(weight_dev, abs(mm - pairing))
            assert (jj, round(abs(mm), 6)) in {(0.5, 0.5), (0.0, 0.0)}

    ok = (
        sum_rule_dev <= 1e-10
        and casimir_dev <= 1e-10
        and split_dev <= 1e-8
        and weight_dev <= 1e-8
    )
    line = record_criterion(
        7,
        ok,
        "moment identities hold on 1000 Haar states per algebra "
        f"(uncertainty+purity sum rule {sum_rule_dev:.1e} <= 1e-10, "
        f"second-moment sum {casimir_dev:.1e} <= 1e-10, sector partition "
        f"{split_dev:.1e} <= 1e-8, weight formulas {weight_dev:.1e} <= 1e-8)",
    )
    print(line)
    assert sum_rule_dev <= 1e-10
    assert casimir_dev <= 1e-10
    assert split_dev <= 1e-8
    assert weight_dev <= 1e-8


def test_criterion_8_mean_step_matches_drift():
    """The mean one-step change of the uncertainty over 10000 noise draws
    from one Haar state is within 3 standard errors of the drift D dt.

    False-alarm rate: run with each DRIFT_SEED in 87700..88699 (1000
    seeds, this statistic unchanged), 1 seed (88082, pull 3.05) gave a
    pull above 3 standard errors, 0.1%; 4.4% gave one above 2, against
    4.6% for a standard normal pull.
    """
    rep = build_su2_irrep(4)  # j = 2
    psi = haar_state(5, DRIFT_SEED)
    n = 10000
    amp = np.sqrt(2.0 * GAMMA * DT)
    noise = amp * stream_rng(DRIFT_SEED, 0).standard_normal((n, 3))

    outs = np.empty((n, 5), dtype=complex)
    for i in range(n):
        outs[i] = snlse_step(psi, None, rep, GAMMA, DT, noise[i])
    purity, _, _ = batch_moments(outs, rep, GAMMA)
    delta_after = rep.casimir_eigenvalue - purity

    d_delta = delta_after - total_uncertainty(psi, rep)
    mean = float(np.mean(d_delta))
    se = float(np.std(d_delta, ddof=1) / np.sqrt(n))
    predicted = localization_drift(psi, rep, GAMMA) * DT
    pull = abs(mean - predicted) / se
    ok = pull <= 3.0
    line = record_criterion(
        8,
        ok,
        "mean one-step uncertainty change matches the drift functional "
        f"(10000 steps: measured {mean:.3e}, predicted {predicted:.3e}, "
        f"|deviation| = {pull:.2f} standard errors <= 3)",
    )
    print(line)
    assert pull <= 3.0
