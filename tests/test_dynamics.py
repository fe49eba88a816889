import os
import time
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from conftest import algebra, case_id, decomposed, lindblad_superoperator, reference_moments
from gcsloc import dynamics
from gcsloc.algebra import build_su2_irrep, build_sun_fundamental
from gcsloc.cartan import cartan_decompose, highest_weight_state
from gcsloc.dynamics import (
    NoiseConfig,
    TrajectoryRecord,
    ensemble_average,
    ensemble_observables,
    haar_state,
    haar_states,
    lindblad_evolve,
    lindblad_expm_evolve,
    scan_states,
    simulate_trajectory,
    snlse_step,
    stream_rng,
    validate_density,
)
from gcsloc.observables import (
    covariance_matrix,
    covariance_trace_norm,
    expectation_vector,
    generalized_purity,
    localization_drift,
    total_uncertainty,
)


@pytest.fixture(scope="module")
def spin1():
    return algebra("su2:two_j=2")


# the limit the library steps with; some tests patch dynamics._STACK_LIMIT
STACK_LIMIT = dynamics._STACK_LIMIT


def complex_step(psi, rep, gamma, dt, noise, prop=None):
    """One split step on complex rows, with the complex propagator prop,
    called the way ``_integrate`` calls it: on the rows' real view, with
    the propagator's real form, overflow left to the norm check.  An (n, d)
    psi with (n, K) noise is stepped by the step ``dynamics._batch_stepper``
    builds for n states, a (d,) psi with (K,) noise by the step
    ``dynamics._one_stepper`` builds."""
    pf = np.ascontiguousarray(psi, dtype=complex).view(np.float64)
    rprop = None if prop is None else dynamics._real_form(prop.T)
    with np.errstate(over="ignore"):
        if pf.ndim == 1:
            step = dynamics._one_stepper(rep, gamma, dt, rprop)
        else:
            step = dynamics._batch_stepper(rep, gamma, dt, len(pf), rprop)
        return step(pf, noise).view(complex)


def projector(psi):
    return np.outer(psi, psi.conj())


def hmatrix(rep, h):
    """The reference H = sum_k h_k X_k of coefficients h."""
    return np.tensordot(np.asarray(h, dtype=float), rep.generators, axes=1)


# ---------------------------------------------------------------- sampling


def test_haar_states_shape_norm_determinism():
    a = haar_states(4, 7, seed=11)
    b = haar_states(4, 7, seed=11)
    assert a.shape == (7, 4)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(a, b)
    assert not np.allclose(a, haar_states(4, 7, seed=12))


def test_haar_state_is_single_draw():
    # matches the n = 1 batch; larger batches interleave the real and
    # imaginary blocks differently and need not share a prefix
    assert np.array_equal(haar_state(3, 5), haar_states(3, 1, 5)[0])


def test_scan_states_use_a_separate_stream():
    a = haar_states(3, 4, seed=9)
    b = scan_states(3, 4, seed=9)
    assert not np.allclose(a, b)
    assert np.allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-12)


def test_stream_rng_independence():
    x = stream_rng(3, 0).standard_normal(8)
    y = stream_rng(3, 1).standard_normal(8)
    z = stream_rng(4, 0).standard_normal(8)
    assert not np.allclose(x, y)
    assert not np.allclose(x, z)
    assert np.array_equal(x, stream_rng(3, 0).standard_normal(8))


def test_stream_rng_keys_every_seed_by_its_64_bit_word():
    # the key wraps modulo 2^64 and no word passes through a float
    draws = {s: stream_rng(s, 0).standard_normal(4) for s in (-1, -2, -1000, 2**63 + 5, 2**63 + 6, 0)}
    assert len({d.tobytes() for d in draws.values()}) == len(draws)
    assert np.array_equal(draws[-1], stream_rng(2**64 - 1, 0).standard_normal(4))


def keyed_philox(seed, stream):
    """Philox(key=...) on the words of (seed, stream), the way numpy keys it."""
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def test_streams_and_probes_draw_no_os_entropy(spin1, monkeypatch):
    import numpy.random.bit_generator as bit_generator

    from gcsloc import cartan as cartan_module

    rep = build_sun_fundamental(3)
    keys = ((0, 0), (5, 2), (-1, 0), (2**63 + 5, 1))
    stream_refs = [keyed_philox(seed, stream).standard_normal(6) for seed, stream in keys]
    z = keyed_philox(8, 1).standard_normal((2, 4 * 3))
    haar_ref = (z[0] + 1j * z[1]).reshape(4, 3)
    haar_ref /= np.linalg.norm(haar_ref, axis=1, keepdims=True)
    probe_ref = np.random.Generator(np.random.Philox(key=cartan_module._PROBE_KEY)).random(5)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=6, seed=-3)
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 3)
    with monkeypatch.context() as m:
        m.setattr(dynamics, "stream_rng", keyed_philox)
        ens_ref = ensemble_average(haar_state(3, 2), None, spin1, cfg, 5)
    cartan = cartan_decompose(rep)

    def no_entropy(*args):
        raise AssertionError("OS entropy drawn")

    monkeypatch.setattr(bit_generator, "randbits", no_entropy)
    with pytest.raises(AssertionError, match="OS entropy"):
        np.random.Philox(key=5)
    for (seed, stream), ref in zip(keys, stream_refs):
        assert np.array_equal(stream_rng(seed, stream).standard_normal(6), ref)
    assert np.array_equal(haar_states(3, 4, 8), haar_ref)
    assert np.array_equal(cartan_module._probe_rng().random(5), probe_ref)
    again = cartan_decompose(rep)
    assert all(np.array_equal(a, b) for a, b in zip(vars(again).values(), vars(cartan).values()))
    assert np.array_equal(ensemble_average(haar_state(3, 2), None, spin1, cfg, 5)[1], ens_ref[1])


def test_non_integral_seeds_streams_and_counts_are_rejected():
    for call, message in (
        (lambda: haar_states(3, 2, 2.7), "seed must be an integer, got 2.7"),
        (lambda: haar_states(3, 2, float("nan")), "seed must be an integer, got nan"),
        (lambda: haar_states(3, 2, 1, stream=1.5), "stream must be an integer, got 1.5"),
        (lambda: stream_rng(1, 0.5), "stream must be an integer, got 0.5"),
        (lambda: stream_rng("1", 0), "seed must be an integer, got '1'"),
        (lambda: haar_states(3, 2.5, 1), "n must be an integer, got 2.5"),
        (lambda: haar_states(3, 0, 1), "n must be a positive integer, got 0"),
        (lambda: haar_states(np.inf, 2, 1), "dim must be an integer, got inf"),
        (lambda: haar_state(0, 1), "dim must be a positive integer, got 0"),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    # integral values of any type read as their integers
    assert np.array_equal(haar_states(3.0, 2.0, np.int64(1)), haar_states(3, 2, 1))
    assert np.array_equal(stream_rng(7.0, np.uint8(2)).random(4), stream_rng(7, 2).random(4))


def test_negative_seed_trajectories_are_distinct(spin1):
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=5, seed=-1000)
    _, rows = ensemble_observables(haar_state(3, 5), None, spin1, cfg, n_traj=50)
    assert len({r.tobytes() for r in rows}) == 50


# ------------------------------------------------------------- validation


def test_noise_config_validation():
    NoiseConfig(gamma=0.1, dt=1e-3, steps=10, seed=0)
    with pytest.raises(ValueError, match="gamma"):
        NoiseConfig(gamma=-0.1, dt=1e-3, steps=10, seed=0)
    with pytest.raises(ValueError, match="dt"):
        NoiseConfig(gamma=0.1, dt=0.0, steps=10, seed=0)
    with pytest.raises(ValueError, match="steps"):
        NoiseConfig(gamma=0.1, dt=1e-3, steps=0, seed=0)
    with pytest.raises(ValueError, match="seed"):
        NoiseConfig(gamma=0.1, dt=1e-3, steps=10, seed=0.5)
    with pytest.raises(ValueError, match="stability"):
        NoiseConfig(gamma=1.0, dt=0.1, steps=10, seed=0)
    # integral values of any numeric type are stored as Python ints
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=10.0, seed=np.float64(1.0))
    assert (type(cfg.steps), type(cfg.seed)) == (int, int) and (cfg.steps, cfg.seed) == (10, 1)
    assert type(NoiseConfig(gamma=0.1, dt=1e-3, steps=np.int64(3), seed=np.uint64(5)).steps) is int
    for bad in (np.inf, -np.inf, np.nan, 2.5, "10", None):
        with pytest.raises(ValueError, match="steps"):
            NoiseConfig(gamma=0.1, dt=1e-3, steps=bad, seed=0)
        with pytest.raises(ValueError, match="seed"):
            NoiseConfig(gamma=0.1, dt=1e-3, steps=10, seed=bad)


def test_float_steps_and_seed_run_as_their_integers(spin1):
    psi = haar_state(3, 14)
    got = simulate_trajectory(psi, None, spin1, NoiseConfig(0.1, 1e-3, 20.0, 7.0), 4)
    ref = simulate_trajectory(psi, None, spin1, NoiseConfig(0.1, 1e-3, 20, 7), 4)
    assert type(got.seed) is int and got.seed == 7
    assert np.array_equal(got.expectations, ref.expectations)


def integral_or_not():
    return st.one_of(
        st.integers(-(2**70), 2**70),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-5, 10**6).map(float),
    )


@settings(max_examples=200, deadline=None)
@given(steps=integral_or_not(), seed=integral_or_not())
def test_noise_config_integral_fields_property(steps, seed):
    def integral(x):
        return isinstance(x, int) or (np.isfinite(x) and x.is_integer())

    if not (integral(steps) and steps >= 1):
        with pytest.raises(ValueError, match="steps"):
            NoiseConfig(gamma=0.1, dt=1e-3, steps=steps, seed=seed)
    elif not integral(seed):
        with pytest.raises(ValueError, match="seed"):
            NoiseConfig(gamma=0.1, dt=1e-3, steps=steps, seed=seed)
    else:
        cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=steps, seed=seed)
        assert type(cfg.steps) is int and cfg.steps == steps
        assert type(cfg.seed) is int and cfg.seed == seed


def test_hamiltonian_validation(spin1):
    h = [0.3, -0.2, 1.0]
    ham = dynamics._hamiltonian_matrix(h, spin1)
    assert np.max(np.abs(ham - ham.conj().T)) < 1e-14
    assert np.max(np.abs(ham - hmatrix(spin1, h))) < 1e-15
    assert dynamics._hamiltonian_matrix(np.zeros(3), spin1) is None
    assert dynamics._hamiltonian_matrix(None, spin1) is None
    with pytest.raises(ValueError, match="shape"):
        dynamics._hamiltonian_matrix([0.1, 0.2], spin1)
    # the step propagator is the real form of a unitary, so it is orthogonal
    prop = dynamics._step_propagator(h, spin1, 1e-3)
    assert np.max(np.abs(prop @ prop.T - np.eye(6))) < 1e-12
    # a corrupted generator set is caught by the Hermiticity and project-back checks
    gens = spin1.generators
    skew = SimpleNamespace(dim_algebra=3, generators=gens * [[[1j]], [[1]], [[1]]],
                           normalization=spin1.normalization)
    with pytest.raises(ValueError, match="not Hermitian"):
        dynamics._hamiltonian_matrix(h, skew)
    scaled = SimpleNamespace(dim_algebra=3, generators=2.0 * gens,
                             normalization=spin1.normalization)
    with pytest.raises(ValueError, match="project back"):
        dynamics._hamiltonian_matrix(h, scaled)


@pytest.mark.parametrize("coeffs", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]])
def test_hamiltonian_rejects_non_finite_coefficients(spin1, coeffs):
    # NaN passes the Hermiticity and project-back comparisons, so it needs its own check
    with pytest.raises(ValueError, match="finite"):
        snlse_step(haar_state(3, 20), coeffs, spin1, 0.1, 1e-3, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        lindblad_expm_evolve(projector(haar_state(3, 20)), coeffs, spin1, 0.1, [0.0, 0.1])


def test_simulate_rejects_unnormalized(spin1):
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=5, seed=0)
    with pytest.raises(ValueError, match="normalized"):
        simulate_trajectory(np.array([1.0, 1.0, 0.0]), None, spin1, cfg)


def test_non_finite_state_rejected(spin1):
    bad = np.array([np.nan, 0.0, 0.0], dtype=complex)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=5, seed=0)
    with pytest.raises(ValueError, match="not finite"):
        simulate_trajectory(bad, None, spin1, cfg)
    with pytest.raises(ValueError, match="not finite"):
        snlse_step(bad, None, spin1, 0.1, 1e-3, np.zeros(3))


def test_record_stride_must_divide(spin1):
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=10, seed=0)
    with pytest.raises(ValueError, match="stride"):
        simulate_trajectory(haar_state(3, 0), None, spin1, cfg, record_stride=3)


def test_integral_float_stride_is_the_int_stride(spin1):
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=10, seed=0)
    psi = haar_state(3, 0)
    a = simulate_trajectory(psi, None, spin1, cfg, record_stride=2)
    b = simulate_trajectory(psi, None, spin1, cfg, record_stride=2.0)
    for field in ("times", "uncertainty", "purity", "cov_trace_norm", "drift", "expectations"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    ta, rho_a = ensemble_average(psi, None, spin1, cfg, 3, record_stride=2)
    tb, rho_b = ensemble_average(psi, None, spin1, cfg, 3, record_stride=2.0)
    assert ta.tobytes() == tb.tobytes() and rho_a.tobytes() == rho_b.tobytes()


@pytest.mark.parametrize("stride", [2.5, np.nan])
def test_non_integral_stride_named(spin1, stride):
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=10, seed=0)
    with pytest.raises(ValueError, match="record stride must be an integer"):
        simulate_trajectory(haar_state(3, 0), None, spin1, cfg, record_stride=stride)
    with pytest.raises(ValueError, match="record stride must be an integer"):
        ensemble_average(haar_state(3, 0), None, spin1, cfg, 2, record_stride=stride)


# ------------------------------------------------------------ single steps


def test_step_gamma_zero_is_exact_unitary(spin1):
    h = [0.4, 0.1, -0.7]
    psi = haar_state(3, 21)
    out = snlse_step(psi, h, spin1, gamma=0.0, dt=1e-2, increments=np.zeros(3))
    ref = scipy.linalg.expm(-1j * 1e-2 * hmatrix(spin1, h)) @ psi
    assert np.max(np.abs(out - ref)) < 1e-13


def test_step_free_measurement_identity(spin1):
    psi = haar_state(3, 22)
    out = snlse_step(psi, None, spin1, gamma=0.0, dt=1e-3, increments=np.zeros(3))
    assert np.max(np.abs(out - psi)) < 1e-15


def test_step_output_normalized(spin1):
    rng = np.random.default_rng(5)
    psi = haar_state(3, 23)
    inc = np.sqrt(2 * 0.1 * 1e-3) * rng.standard_normal(3)
    out = snlse_step(psi, [0.2, 0.0, 0.5], spin1, 0.1, 1e-3, inc)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_step_divides_only_a_norm_off_1_beyond_rounding(spin1):
    psi = dynamics._validate_state(haar_state(3, 27), 3)
    inc = np.array([0.05, -0.08, 0.1])
    ref = dynamics._one_stepper(spin1, 0.1, 1e-3)(psi.view(np.float64), inc).view(complex)
    assert np.array_equal(snlse_step(psi, None, spin1, 0.1, 1e-3, inc), ref)
    # a norm 1e-9 off 1 is divided out first; stepped as given, it would move the result by ~5e-12
    off = snlse_step((1 + 1e-9) * psi, None, spin1, 0.1, 1e-3, inc)
    assert np.max(np.abs(off - ref)) < 1e-15


def test_step_none_hamiltonian_equals_zero_hamiltonian(spin1):
    psi = haar_state(3, 25)
    inc = np.sqrt(2 * 0.1 * 1e-3) * np.random.default_rng(6).standard_normal(3)
    a = snlse_step(psi, None, spin1, 0.1, 1e-3, inc)
    b = snlse_step(psi, np.zeros(3), spin1, 0.1, 1e-3, inc)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("gamma, dt", [(np.nan, 1e-3), (0.1, np.nan), (np.inf, 1e-3), (0.1, -np.inf)])
def test_step_rejects_non_finite_gamma_or_dt(spin1, gamma, dt):
    with pytest.raises(ValueError, match="finite"):
        snlse_step(haar_state(3, 26), None, spin1, gamma, dt, np.zeros(3))


def test_step_guard_and_shape_errors(spin1):
    psi = haar_state(3, 24)
    with pytest.raises(ValueError, match="stability"):
        snlse_step(psi, None, spin1, gamma=1.0, dt=0.1, increments=np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        snlse_step(psi, None, spin1, gamma=0.1, dt=1e-3, increments=np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_rejects_non_finite_increments(spin1, bad):
    with pytest.raises(ValueError, match="increments must be finite"):
        snlse_step(haar_state(3, 24), None, spin1, 0.1, 1e-3, [0.0, bad, 0.0])


def test_hamiltonian_of_another_length_is_rejected_everywhere(spin1):
    # eight su(3) coefficients on spin 1, which also has d = 3
    h = np.linspace(-0.5, 0.5, 8)
    psi, cfg = haar_state(3, 30), NoiseConfig(gamma=0.1, dt=1e-3, steps=4, seed=0)
    rho0 = projector(psi)
    for call in (
        lambda: snlse_step(psi, h, spin1, 0.1, 1e-3, np.zeros(3)),
        lambda: simulate_trajectory(psi, h, spin1, cfg),
        lambda: ensemble_average(psi, h, spin1, cfg, 2),
        lambda: lindblad_expm_evolve(rho0, h, spin1, 0.1, [0.0, 0.1]),
    ):
        with pytest.raises(ValueError, match="shape"):
            call()


@pytest.mark.parametrize("kind", ["array", "list", "object"])
def test_complex_coefficients_are_rejected_everywhere(spin1, kind):
    # a float cast would keep the real part and only warn, or raise
    # TypeError on an object array; an imaginary part of zero is refused
    # too, since the dtype is what is checked
    z = {
        "array": np.array([0.3, -0.2j, 0.5]),
        "list": [0.3 + 0j, -0.2j, 0.5],
        "object": np.array([0.3 + 0j, -0.2, 0.5], dtype=object),
    }[kind]
    psi, cfg = haar_state(3, 30), NoiseConfig(gamma=0.1, dt=1e-3, steps=4, seed=0)
    rho0 = projector(psi)
    for call, name in (
        (lambda: snlse_step(psi, z, spin1, 0.1, 1e-3, np.zeros(3)), "Hamiltonian coefficients"),
        (lambda: snlse_step(psi, None, spin1, 0.1, 1e-3, z), "increments"),
        (lambda: snlse_step(psi, None, spin1, 0.1, 1e-3, np.zeros(3, dtype=complex)), "increments"),
        (lambda: simulate_trajectory(psi, z, spin1, cfg), "Hamiltonian coefficients"),
        (lambda: ensemble_average(psi, z, spin1, cfg, 2), "Hamiltonian coefficients"),
        (lambda: ensemble_observables(psi, z, spin1, cfg, 2), "Hamiltonian coefficients"),
        (lambda: lindblad_expm_evolve(rho0, z, spin1, 0.1, [0.0, 0.1]), "Hamiltonian coefficients"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            call()


def test_zero_hamiltonian_is_no_hamiltonian(spin1):
    psi, cfg, zero = haar_state(3, 31), NoiseConfig(gamma=0.1, dt=1e-3, steps=20, seed=3), np.zeros(3)
    rho0 = projector(psi)
    inc = np.full(3, 1e-2)
    for run in (
        lambda h: snlse_step(psi, h, spin1, 0.1, 1e-3, inc),
        lambda h: simulate_trajectory(psi, h, spin1, cfg, 5).expectations,
        lambda h: ensemble_average(psi, h, spin1, cfg, 3, 5)[1],
        lambda h: lindblad_expm_evolve(rho0, h, spin1, 0.1, [0.0, 0.3, 0.1]),
    ):
        assert np.array_equal(run(zero), run(None))


def test_ensemble_builds_one_propagator_per_run(spin1, monkeypatch):
    calls = []
    exp = dynamics.unitary_exp

    def counted(h, t=1.0):
        calls.append(t)
        return exp(h, t)

    monkeypatch.setattr(dynamics, "unitary_exp", counted)
    monkeypatch.setenv("GCSLOC_THREADS", "2")
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 3)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=10, seed=4)
    ensemble_average(haar_state(3, 32), [0.2, -0.1, 0.4], spin1, cfg, n_traj=9)
    assert calls == [-1e-3]


def test_step_blow_up_detected(spin1):
    psi = haar_state(3, 25)
    with pytest.raises(RuntimeError, match="blow-up"):
        snlse_step(psi, None, spin1, 0.1, 1e-3, np.array([1e200, 1e200, 1e200]))


def spike_noise(monkeypatch, bad_seed, row, value, col=slice(None)):
    """Patch ``dynamics.stream_rng`` so that the noise stream of bad_seed
    draws value at [row, col] of its history, rows counted across the
    chunks of steps ``_integrate`` draws at a time."""
    real_rng = dynamics.stream_rng

    class Spiked:
        def __init__(self, seed, stream):
            self.rng, self.rows = real_rng(seed, stream), 0
            self.bad = seed == bad_seed and stream == dynamics.NOISE_STREAM

        def standard_normal(self, shape, out=None):
            z = self.rng.standard_normal(shape, out=out)
            if self.bad and self.rows <= row < self.rows + len(z):
                z[row - self.rows, col] = value
            self.rows += len(z)
            return z

    monkeypatch.setattr(dynamics, "stream_rng", Spiked)


def test_blow_up_names_step_trajectory_and_seed(spin1, monkeypatch):
    # the noise of the trajectory seeded 72 is spiked at its fourth step
    spike_noise(monkeypatch, 72, 3, 1e200)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=10, seed=72)
    with pytest.raises(RuntimeError, match="step 4, trajectory 0, seed 72"):
        simulate_trajectory(haar_state(3, 26), None, spin1, cfg)
    # trajectory 3 is row 1 of the second block of two
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 2)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=10, seed=69)
    with pytest.raises(RuntimeError, match="step 4, trajectory 3, seed 72"):
        ensemble_observables(haar_state(3, 26), None, spin1, cfg, n_traj=5)


# row "one": a lone state, stepped as one row rather than a batch
@pytest.mark.parametrize("row", [0, 1, 2, "one"])
@pytest.mark.parametrize("fault", ["nan", "inf", "zero"])
def test_step_blow_up_names_the_failing_row(spin1, fault, row):
    psi = haar_states(3, 3, seed=27)
    noise = np.full((3, 3), 1e-3)
    at = 0 if row == "one" else row
    if fault == "nan":
        psi[at] = np.nan
    elif fault == "inf":
        noise[at] = 1e200  # the norm overflows to +inf
    else:
        psi[at] = 0.0
    if row == "one":
        psi, noise = psi[0], noise[0]
    with pytest.raises(dynamics._RowFault, match="blow-up") as err:
        complex_step(psi, spin1, 0.1, 1e-3, noise)
    assert list(err.value.rows) == [at]


def test_step_blow_up_names_every_failing_row(spin1):
    psi = haar_states(3, 4, seed=28)
    noise = np.full((4, 3), 1e-3)
    psi[0] = np.nan
    noise[2] = 1e200
    psi[3] = 0.0
    with pytest.raises(dynamics._RowFault, match="blow-up") as err:
        complex_step(psi, spin1, 0.1, 1e-3, noise)
    assert list(err.value.rows) == [0, 2, 3]


def test_nan_noise_names_step_trajectory_and_seed(spin1, monkeypatch):
    # the noise of the trajectory seeded 83 is NaN at its sixth step
    spike_noise(monkeypatch, 83, 5, np.nan, 1)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=10, seed=83)
    with pytest.raises(RuntimeError, match=r"blow-up.*\(step 6, trajectory 0, seed 83\)"):
        simulate_trajectory(haar_state(3, 29), None, spin1, cfg)
    # trajectory 4 is row 0 of the third block of two
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 2)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=10, seed=79)
    with pytest.raises(RuntimeError, match=r"blow-up.*\(step 6, trajectory 4, seed 83\)"):
        ensemble_observables(haar_state(3, 29), None, spin1, cfg, n_traj=6)


@pytest.fixture(scope="module")
def su6():
    return algebra("suN:n=6")


def chunked_cfg(seed):
    # a 256-trajectory su(6) block draws its noise in chunks of 58 steps, so
    # 126 steps take three chunks, and stride 7 does not divide the chunk
    return NoiseConfig(gamma=0.1, dt=1e-3, steps=126, seed=seed)


def reference_record_states(initials, h, rep, cfg, stride):
    """The (n_rec, n_traj, d) states at the record times, stepping blocks of
    DEFAULT_BLOCK trajectories whose noise is drawn in one call for each
    trajectory's whole history."""
    ham = dynamics._hamiltonian_matrix(h, rep)
    prop = None if ham is None else dynamics.unitary_exp(ham, -cfg.dt)
    amp = np.sqrt(2.0 * cfg.gamma * cfg.dt)
    blocks = []
    for lo in range(0, len(initials), dynamics.DEFAULT_BLOCK):
        batch = initials[lo : lo + dynamics.DEFAULT_BLOCK].copy()
        noise = amp * np.stack(
            [
                stream_rng(cfg.seed + lo + i, 0).standard_normal((cfg.steps, rep.dim_algebra))
                for i in range(len(batch))
            ],
            axis=1,
        )
        states = [batch]
        for u in range(cfg.steps):
            batch = complex_step(batch, rep, cfg.gamma, cfg.dt, noise[u], prop)
            if (u + 1) % stride == 0:
                states.append(batch)
        blocks.append(np.stack(states))
    return np.concatenate(blocks, axis=1)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_chunked_noise_matches_one_draw_per_trajectory(su6, monkeypatch, threads):
    # su(6): two blocks of 256 draw 58 steps at a time, the 2^19-double cap;
    # spin 2: blocks of 256 and 128 draw 256 steps at a time, the step
    # bound, over 301 steps; stride 7 divides no chunk length
    monkeypatch.setenv("GCSLOC_THREADS", threads)
    block, stride = dynamics.DEFAULT_BLOCK, 7
    spin2 = build_su2_irrep(4)
    cases = [
        (su6, chunked_cfg(311), 2 * block),
        (spin2, NoiseConfig(gamma=0.1, dt=1e-3, steps=301, seed=311), block + 128),
    ]
    assert (1 << 19) // (block * spin2.dim_algebra) > block < cases[1][1].steps
    for rep, cfg, n_traj in cases:
        d = rep.dim_hilbert
        h = np.linspace(-0.5, 0.5, rep.dim_algebra)
        initials = haar_states(d, n_traj, seed=312)
        states = reference_record_states(
            np.stack([dynamics._validate_state(row, d) for row in initials]), h, rep, cfg, stride
        )
        # the ensembles observe one record time of one block at a time
        rows = dynamics._observe_batch(states, rep, cfg.gamma).transpose(1, 0, 2)
        _, got = ensemble_observables(initials, h, rep, cfg, n_traj, stride)
        assert np.array_equal(got, rows)
        blocks = np.split(states, range(block, n_traj, block), axis=1)
        acc = np.array(
            [
                [np.einsum("mna,mnb->mab", b[k : k + 1], b[k : k + 1].conj())[0] for k in range(len(b))]
                for b in blocks
            ]
        )
        _, rho = ensemble_average(initials, h, rep, cfg, n_traj, stride)
        assert np.array_equal(rho, sum(acc) / n_traj)


def test_blow_up_past_the_first_chunk_names_its_step(su6, monkeypatch):
    # the trajectory seeded 500 gets a NaN draw at global step 70, in the
    # second chunk
    spike_noise(monkeypatch, 500, 69, np.nan, 2)
    with pytest.raises(RuntimeError, match=r"blow-up.*\(step 70, trajectory 200, seed 500\)"):
        ensemble_observables(haar_state(6, 31), None, su6, chunked_cfg(300), 256, 7)


def test_ensemble_noise_memory_is_bounded(su6, monkeypatch):
    # one history slab of this block would be 126 * 256 * 35 doubles, 8.6 MiB
    monkeypatch.setenv("GCSLOC_THREADS", "1")
    psi = haar_state(6, 32)
    tracemalloc.start()
    try:
        ensemble_average(psi, None, su6, chunked_cfg(313), 256, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.parametrize("threads", ["1", "2"])
def test_ensemble_average_memory_does_not_grow_with_blocks(monkeypatch, threads):
    # each block's (51, 9, 9) partial, 66 KB, is added to the sum as it
    # is read, and at most one round's partials are held at a time;
    # holding all 40 partials took 36 partials' worth more than 4 blocks did
    monkeypatch.setenv("GCSLOC_THREADS", threads)
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 8)
    rep = build_su2_irrep(8)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=50, seed=33)
    psi = haar_state(9, 33)

    def peak(blocks):
        tracemalloc.start()
        try:
            _, rho = ensemble_average(psi, None, rep, cfg, 8 * blocks, 1)
            return tracemalloc.get_traced_memory()[1], rho.nbytes
        finally:
            tracemalloc.stop()

    peak(2)  # first-call allocations
    few, size = peak(4)
    many, _ = peak(40)
    assert many < few + 8 * size


def reference_step(psi, rep, gamma, dt, noise, prop):
    """The split step with the d x d Casimir matrix C = sum_k X_k^2, written
    as the update

        psi + sum_k (2 gamma dt v_k + dxi_k) X_k psi - gamma dt C psi
            - (gamma dt P + sum_k dxi_k v_k) psi

    with its K + 1 coefficients against X_1 psi .. X_K psi and C psi."""
    if prop is not None:
        psi = psi @ prop.T
    n, k = noise.shape
    cas = np.einsum("kab,kbc->ac", rep.generators, rep.generators)
    y = np.concatenate(
        [np.einsum("kab,nb->nka", rep.generators, psi), (psi @ cas.T)[:, None]],
        axis=1,
    )
    v = np.einsum("na,nka->nk", psi.conj(), y[:, :k]).real
    gdt = gamma * dt
    coef = np.empty((n, k + 1))
    coef[:, :k] = 2.0 * gdt * v + noise
    coef[:, k] = -gdt
    keep = 1.0 - gdt * np.sum(v * v, axis=1) - np.sum(noise * v, axis=1)
    out = np.einsum("nk,nka->na", coef, y) + keep[:, None] * psi
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def check_step_against_reference(spec, n, with_h, seed, dt, frac):
    rep = algebra(spec)
    gamma = frac * dynamics.STABILITY_LIMIT / dt
    rng = np.random.default_rng(seed)
    psi = haar_states(rep.dim_hilbert, n, seed)
    noise = np.sqrt(2.0 * gamma * dt) * rng.standard_normal((n, rep.dim_algebra))
    prop = None
    if with_h:
        prop = scipy.linalg.expm(-1j * dt * hmatrix(rep, rng.uniform(-1.0, 1.0, rep.dim_algebra)))
    got = complex_step(psi, rep, gamma, dt, noise, prop)
    ref = reference_step(psi, rep, gamma, dt, noise, prop)
    assert np.max(np.abs(got - ref)) <= 1e-13
    if n == 1:  # the lone-state step, bit for bit a batch of one
        one = complex_step(psi[0], rep, gamma, dt, noise[0], prop)
        assert np.max(np.abs(one - ref[0])) <= 1e-13
        # a batch of one always takes the stack: its K 2d doubles are within the limit
        assert rep.dim_algebra * 2 * rep.dim_hilbert <= STACK_LIMIT
        with mock.patch.object(dynamics, "_STACK_LIMIT", STACK_LIMIT):
            assert np.array_equal(one, complex_step(psi, rep, gamma, dt, noise, prop)[0])


# at n = 257 only suN:6 takes the operator route; the rest, and every
# algebra at n = 1, step through the stacked X_k psi
@pytest.mark.parametrize("with_h", [False, True])
@pytest.mark.parametrize("n", [1, 257])
@pytest.mark.parametrize(
    "spec",
    [f"su2:two_j={two_j}" for two_j in (1, 2, 4, 8)] + [f"suN:n={n}" for n in (3, 4, 6)] + ["suN:n=3,dynkin=1,1"],
    ids=case_id("step"),
)
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dt=st.floats(1e-5, 1e-2),
    frac=st.floats(0.0, 1.0),
)
def test_step_matches_casimir_matrix_reference(spec, n, with_h, seed, dt, frac):
    check_step_against_reference(spec, n, with_h, seed, dt, frac)


# a stack limit of 0 sends every K > d algebra through the operator route,
# at any batch size
@pytest.mark.parametrize("with_h", [False, True])
@pytest.mark.parametrize("n", [1, 257])
@pytest.mark.parametrize("spec", ["su2:two_j=1"] + [f"suN:n={n}" for n in (2, 3, 4, 6)], ids=case_id("step"))
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dt=st.floats(1e-5, 1e-2),
    frac=st.floats(0.0, 1.0),
)
def test_operator_route_matches_casimir_matrix_reference(spec, n, with_h, seed, dt, frac):
    with mock.patch.object(dynamics, "_STACK_LIMIT", 0):
        check_step_against_reference(spec, n, with_h, seed, dt, frac)


@pytest.mark.parametrize("n", [1, 257])
@pytest.mark.parametrize(
    "spec", [f"su2:two_j={two_j}" for two_j in (1, 2, 4, 8)] + ["suN:n=3", "suN:n=6"], ids=case_id("builder")
)
def test_moment_kernel_matches_brute_force(spec, n):
    rep = algebra(spec)
    # seeded by two_j or n of the spec, plus the batch size
    psi = haar_states(rep.dim_hilbert, n, seed=int(spec.rpartition("=")[2]) + n)
    pf, z, got = dynamics._moments(psi, rep)
    u = dynamics._centred(pf, z, got)
    v, m = reference_moments(psi, rep)
    c = rep.casimir_eigenvalue
    tol = 1e-12
    assert np.max(np.abs(got - v)) <= tol * c
    assert np.max(np.abs(dynamics._purity(got) - np.sum(v * v, axis=1))) <= tol * c**2
    assert np.max(np.abs(dynamics._second(z) - c)) <= tol * c
    assert np.max(np.abs(2.0 * (u @ u.transpose(0, 2, 1)) - m)) <= tol * c
    assert np.max(np.abs(covariance_matrix(psi[0], rep) - m[0])) <= tol * c
    assert np.max(np.abs(dynamics._tnorm(u) - np.sum(m * m, axis=(1, 2)))) <= tol * c**2


def test_coherent_state_one_step_deviation_scales_quadratically():
    # at an extremal state the drift vanishes and the noise moves the state
    # along the coherent orbit to first order, so the one-step excess
    # uncertainty scales like dt^2 under shared unit noise
    rep, cartan = decomposed("su2:two_j=2")
    hw = highest_weight_state(cartan)
    gamma = 0.1
    z = stream_rng(123, 0).standard_normal(3)

    def deviation(dt):
        inc = np.sqrt(2 * gamma * dt) * z
        out = snlse_step(hw, None, rep, gamma, dt, inc)
        return total_uncertainty(out, rep) - 1.0

    full = deviation(1e-3)
    half = deviation(5e-4)
    assert 0.0 <= full < 1e-6
    assert half < 0.3 * full


# ------------------------------------------------------------ trajectories


def test_trajectory_determinism(spin1):
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=100, seed=77)
    psi = haar_state(3, 7)
    a = simulate_trajectory(psi, None, spin1, cfg, record_stride=10)
    b = simulate_trajectory(psi, None, spin1, cfg, record_stride=10)
    assert np.array_equal(a.uncertainty, b.uncertainty)
    assert np.array_equal(a.expectations, b.expectations)
    assert a.seed == 77
    assert len(a.times) == 11
    assert a.times[-1] == pytest.approx(0.1, rel=1e-12)


def test_trajectory_initial_row_matches_state_functionals(spin1):
    cfg = NoiseConfig(gamma=0.2, dt=1e-3, steps=10, seed=3)
    psi = haar_state(3, 30)
    rec = simulate_trajectory(psi, None, spin1, cfg)
    assert rec.uncertainty[0] == pytest.approx(total_uncertainty(psi, spin1), rel=1e-12)
    assert rec.purity[0] == pytest.approx(generalized_purity(psi, spin1), rel=1e-12)
    assert rec.cov_trace_norm[0] == pytest.approx(
        covariance_trace_norm(psi, spin1), rel=1e-12
    )
    assert np.allclose(rec.expectations[0], expectation_vector(psi, spin1), atol=1e-12)


def test_trajectory_snapshots_follow_steps(spin1):
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=4, seed=13)
    psi = haar_state(3, 31)
    # the one-trajectory mean projector is the trajectory's state up to phase
    _, rhos = ensemble_average(psi, None, spin1, cfg, n_traj=1)
    assert rhos.shape == (5, 3, 3)
    # replay the recorded noise through the public single-step API
    for rho, cur in zip(rhos, replayed_states(psi, None, spin1, cfg, 1)):
        assert np.max(np.abs(rho - projector(cur))) < 1e-12


def recorded_states(initial, h, rep, cfg, stride):
    """The (n_rec, d) states ``simulate_trajectory`` records, copied from
    each buffer ``_integrate`` hands its record callback."""
    states, real = [], dynamics._integrate

    def spy(batch, prop, rep, cfg, lo, stride, record):
        def copy(k0, block):
            states.append(block[:, 0].copy())
            record(k0, block)

        real(batch, prop, rep, cfg, lo, stride, copy)

    with mock.patch.object(dynamics, "_integrate", spy):
        simulate_trajectory(initial, h, rep, cfg, record_stride=stride)
    return np.concatenate(states)


def replayed_states(start, h, rep, cfg, stride):
    """The states of chained ``snlse_step`` calls from start, fed the
    trajectory's increments, at every stride-th step."""
    amp = np.sqrt(2 * cfg.gamma * cfg.dt)
    noise = amp * stream_rng(cfg.seed, 0).standard_normal((cfg.steps, rep.dim_algebra))
    cur, out = start, [start]
    for s, xi in enumerate(noise, 1):
        cur = snlse_step(cur, h, rep, cfg.gamma, cfg.dt, xi)
        if s % stride == 0:
            out.append(cur)
    return np.array(out)


# 601 or 301 records: the 256-record buffer flushes twice or once before the last
@pytest.mark.parametrize("h", [None, [0.4, -0.2, 0.7]])
@pytest.mark.parametrize("steps, stride", [(600, 1), (2100, 7)])
def test_recorded_states_are_chained_steps_bit_for_bit(spin1, steps, stride, h):
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=steps, seed=19)
    got = recorded_states(haar_state(3, 33), h, spin1, cfg, stride)
    assert got.shape == (steps // stride + 1, 3)
    assert np.array_equal(got, replayed_states(got[0], h, spin1, cfg, stride))


def test_lone_trajectory_crosses_a_noise_chunk_off_the_record_grid(monkeypatch):
    # one su(6) trajectory draws its noise at most DEFAULT_BLOCK = 256 steps
    # at a time, though 2^19 doubles would hold 14979; stride 7 divides
    # neither 256 nor 512, so both chunk ends fall between records
    rep = build_sun_fundamental(6)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=602, seed=23)
    psi, real_rng, draws = haar_state(6, 34), dynamics.stream_rng, []

    class Counted:
        def __init__(self, seed, stream):
            self.rng = real_rng(seed, stream)

        def standard_normal(self, shape, out=None):
            draws.append(shape)
            return self.rng.standard_normal(shape, out=out)

    monkeypatch.setattr(dynamics, "stream_rng", Counted)
    got = recorded_states(psi, None, rep, cfg, 7)
    assert draws == [(256, 35), (256, 35), (90, 35)]
    assert got.shape == (87, 6)
    assert np.array_equal(got, replayed_states(got[0], None, rep, cfg, 7))


def batch_of_one_rows(initial, h, rep, cfg, stride):
    """The (n_rec, 4 + K) record rows of one trajectory stepped as a (1, 2d)
    batch by the step ``_batch_stepper`` builds for one state (the stack)
    on its noise stream, observed by ``_observe_batch``."""
    amp = np.sqrt(2.0 * cfg.gamma * cfg.dt)
    noise = amp * stream_rng(cfg.seed, 0).standard_normal((cfg.steps, rep.dim_algebra))
    prop = dynamics._step_propagator(h, rep, cfg.dt)
    step = dynamics._batch_stepper(rep, cfg.gamma, cfg.dt, 1, prop)
    pf = dynamics._validate_state(initial, rep.dim_hilbert)[None].view(np.float64)
    states = [pf]
    with np.errstate(over="ignore"):
        for s, xi in enumerate(noise, 1):
            pf = step(pf, xi[None])
            if s % stride == 0:
                states.append(pf)
    return dynamics._observe_batch(np.array(states).view(complex), rep, cfg.gamma)[:, 0]


# the benchmark's run (1001 records, so the 256-record buffer flushes three
# times before the last), and su(3) with H off the unit stride
@pytest.mark.parametrize(
    "spec, steps, stride, h",
    [("su2:two_j=4", 1000, 1, None), ("suN:n=3", 2100, 7, [0.2, 0.1, -0.3, 0.0, 0.4, 0.0, -0.1, 0.2])],
    ids=case_id("step"),
)
def test_trajectory_records_are_the_batch_of_one_route_bit_for_bit(spec, steps, stride, h):
    rep = algebra(spec)
    if spec == "su2:two_j=4":
        initial = highest_weight_state(decomposed(spec)[1])
    else:
        initial = haar_state(rep.dim_hilbert, 36)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=steps, seed=7)
    rec = simulate_trajectory(initial, h, rep, cfg, record_stride=stride)
    got = np.column_stack(
        [rec.uncertainty, rec.purity, rec.cov_trace_norm, rec.drift, rec.expectations]
    )
    assert got.shape == (steps // stride + 1, 4 + rep.dim_algebra)
    assert np.array_equal(got, batch_of_one_rows(initial, h, rep, cfg, stride))


# a 4-trajectory block with a buffer of one record time (DEFAULT_BLOCK 4),
# where each record step divides into the slot the next step reads, or of
# two (DEFAULT_BLOCK 8); spin 1 takes the stack, su(3) at a limit of 0 the
# operator route
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("with_h", [False, True])
@pytest.mark.parametrize("spec", ["su2:two_j=2", "suN:n=3"], ids=case_id("step"))
@pytest.mark.parametrize("block", [4, 8])
def test_block_records_are_chained_batch_steps_bit_for_bit(monkeypatch, block, spec, with_h, stride):
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", block)
    if spec == "suN:n=3":
        monkeypatch.setattr(dynamics, "_STACK_LIMIT", 0)
    rep = algebra(spec)
    h = np.linspace(-0.4, 0.7, rep.dim_algebra) if with_h else None
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=30, seed=41)
    initials = haar_states(rep.dim_hilbert, 4, seed=38)
    _, got = ensemble_observables(initials, h, rep, cfg, 4, stride)
    assert got.shape == (4, 30 // stride + 1, 4 + rep.dim_algebra)
    # complex_step replays the block through _batch_stepper with no dest
    states = reference_record_states(
        np.stack([dynamics._validate_state(row, rep.dim_hilbert) for row in initials]), h, rep, cfg, stride
    )
    assert np.array_equal(got, dynamics._observe_batch(states, rep, cfg.gamma).transpose(1, 0, 2))


@pytest.mark.parametrize("spec", ["su2:two_j=2", "suN:n=3"], ids=case_id("step"))
def test_batch_step_divided_into_its_input_returns_it(monkeypatch, spec):
    monkeypatch.setattr(dynamics, "_STACK_LIMIT", 0)  # su(3) takes the operator route
    rep = algebra(spec)
    h = np.linspace(-0.4, 0.7, rep.dim_algebra)
    step = dynamics._batch_stepper(rep, 0.1, 1e-3, 4, dynamics._step_propagator(h, rep, 1e-3))
    pf = haar_states(rep.dim_hilbert, 4, seed=38).view(np.float64)
    xi = np.full((4, rep.dim_algebra), 0.01)
    ref = step(pf.copy(), xi)
    assert step(pf, xi, pf) is pf and np.array_equal(pf, ref)


@pytest.mark.parametrize("h", [None, np.array([0.4, -0.2, 0.7])])
def test_step_and_trajectory_write_only_their_own_arrays(spin1, h):
    exact = dynamics._validate_state(haar_state(3, 37), 3)
    assert abs(np.linalg.norm(exact) - 1.0) <= 2 * 3 * np.finfo(float).eps  # stepped as given
    inc = np.array([0.05, -0.08, 0.1])
    for psi in (exact, (1 + 1e-9) * exact):
        inputs = [psi, inc] if h is None else [psi, inc, h]
        before = [x.tobytes() for x in inputs]
        out = snlse_step(psi, h, spin1, 0.1, 1e-3, inc)
        assert [x.tobytes() for x in inputs] == before
        assert not any(np.shares_memory(out, x) for x in inputs)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=300, seed=21)
    inputs = [exact] if h is None else [exact, h]
    before = [x.tobytes() for x in inputs]
    rec = simulate_trajectory(exact, h, spin1, cfg)
    assert [x.tobytes() for x in inputs] == before
    arrays = [rec.times, rec.uncertainty, rec.purity, rec.cov_trace_norm, rec.drift]
    arrays.append(rec.expectations)
    assert not any(np.shares_memory(a, x) for a in arrays for x in inputs)


@pytest.mark.parametrize("steps, stride", [(600, 1), (2100, 7)])
def test_buffered_records_match_state_functionals(spin1, steps, stride):
    # 601 or 301 records: buffer flushes of 256 + 256 + 89, or 256 + 45
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=steps, seed=17)
    rec = simulate_trajectory(haar_state(3, 32), None, spin1, cfg, record_stride=stride)
    _, rhos = ensemble_average(haar_state(3, 32), None, spin1, cfg, 1, record_stride=stride)
    assert len(rec.times) == len(rhos) == steps // stride + 1
    for k, rho in enumerate(rhos):
        psi = np.linalg.eigh(rho)[1][:, -1]  # the state up to a global phase
        ref = [
            total_uncertainty(psi, spin1),
            generalized_purity(psi, spin1),
            covariance_trace_norm(psi, spin1),
            localization_drift(psi, spin1, cfg.gamma),
        ]
        got = [rec.uncertainty[k], rec.purity[k], rec.cov_trace_norm[k], rec.drift[k]]
        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-12
        assert np.max(np.abs(rec.expectations[k] - expectation_vector(psi, spin1))) <= 1e-12


def test_records_take_covariance_moments_once_per_block(spin1, monkeypatch):
    calls = []
    real = dynamics._moments

    def counting(psi, rep):
        calls.append(len(psi))
        return real(psi, rep)

    monkeypatch.setattr(dynamics, "_moments", counting)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=1000, seed=18)
    simulate_trajectory(haar_state(3, 33), None, spin1, cfg)
    assert calls == [256, 256, 256, 233]


def _bump_second(monkeypatch, call, row):
    """Shift <C> of one row in the call-th record block's ``_second``."""
    real = dynamics._second
    calls = []

    def bumped(z):
        second = real(z)
        calls.append(None)
        if len(calls) == call:
            second[row] += 1e-6
        return second

    monkeypatch.setattr(dynamics, "_second", bumped)


def test_invariant_drift_names_record_trajectory_and_seed(spin1, monkeypatch):
    monkeypatch.setenv("GCSLOC_THREADS", "1")
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=600, seed=40)
    # row 44 of the second flush is record 256 + 44
    _bump_second(monkeypatch, 2, 44)
    with pytest.raises(RuntimeError, match=r"drifted .*\(record 300, trajectory 0, seed 40\)"):
        simulate_trajectory(haar_state(3, 34), None, spin1, cfg)
    # blocks of two trajectories flush one record time each: after the 11
    # of the first block, the 15th flush is record 3, whose row 1 is
    # trajectory 3
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 2)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=10, seed=41)
    _bump_second(monkeypatch, 15, 1)
    with pytest.raises(RuntimeError, match=r"drifted .*\(record 3, trajectory 3, seed 44\)"):
        ensemble_observables(haar_state(3, 34), None, spin1, cfg, n_traj=5)


def test_trajectory_record_rejects_malformed_grids_and_series():
    times = np.array([0.0, 0.1])
    series = {
        "uncertainty": np.zeros(2),
        "purity": np.zeros(2),
        "cov_trace_norm": np.zeros(2),
        "drift": np.zeros(2),
        "expectations": np.zeros((2, 3)),
    }
    TrajectoryRecord(times=times, seed=0, **series)
    for bad in ([0.0, 0.1], np.zeros(0), np.zeros((2, 1))):
        with pytest.raises(ValueError, match="record grid must be a nonempty 1d array"):
            TrajectoryRecord(times=bad, seed=0, **series)
    for name, good in series.items():
        for bad in (good[:1], np.concatenate([good, good]), np.float64(0.0)):
            with pytest.raises(ValueError, match="each series must have 2 rows"):
                TrajectoryRecord(times=times, seed=0, **{**series, name: bad})


def test_gamma_zero_conserves_invariants(spin1):
    rng = np.random.default_rng(41)
    h = rng.uniform(-1, 1, 3)
    cfg = NoiseConfig(gamma=0.0, dt=1e-3, steps=1000, seed=0)
    rec = simulate_trajectory(haar_state(3, 8), h, spin1, cfg, record_stride=100)
    assert np.max(np.abs(rec.uncertainty - rec.uncertainty[0])) < 1e-10
    assert np.max(np.abs(rec.purity - rec.purity[0])) < 1e-10
    assert np.max(np.abs(rec.cov_trace_norm - rec.cov_trace_norm[0])) < 1e-9


def test_localization_under_pure_measurement(spin1):
    # free measurement contracts the uncertainty toward its orbit minimum
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=5000, seed=6)
    rec = simulate_trajectory(haar_state(3, 9), None, spin1, cfg, record_stride=500)
    assert rec.uncertainty[-1] < rec.uncertainty[0]
    assert abs(rec.uncertainty[-1] - 1.0) < 0.05
    assert np.all(rec.drift <= 1e-12)


# -------------------------------------------------------------- ensembles


def test_ensemble_single_gamma_zero_matches_unitary(spin1):
    h = [0.3, 0.0, 0.9]
    cfg = NoiseConfig(gamma=0.0, dt=1e-3, steps=200, seed=15)
    psi = haar_state(3, 44)
    times, rho = ensemble_average(psi, h, spin1, cfg, n_traj=1, record_stride=200)
    u = scipy.linalg.expm(-1j * 0.2 * hmatrix(spin1, h))
    ref = projector(u @ psi)
    assert np.max(np.abs(rho[-1] - ref)) < 1e-10


def test_ensemble_mean_matches_master_equation(spin1):
    psi = haar_state(3, 2024)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=500, seed=500)
    times, rows = ensemble_observables(psi, None, spin1, cfg, n_traj=400, record_stride=500)
    vals = rows[..., 4:]
    rho_exact = lindblad_expm_evolve(projector(psi), None, spin1, 0.1, times)
    mean = vals[:, -1, :].mean(axis=0)
    se = vals[:, -1, :].std(axis=0, ddof=1) / np.sqrt(vals.shape[0])
    exact = np.real(np.einsum("kab,ba->k", spin1.generators, rho_exact[-1]))
    assert np.all(np.abs(mean - exact) <= 4.0 * se + 1e-12)


def test_unraveling_mean_projector(spin1):
    psi = haar_state(3, 2024)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=500, seed=500)
    times, rho_mean = ensemble_average(
        psi, None, spin1, cfg, n_traj=300, record_stride=500
    )
    rho_exact = lindblad_expm_evolve(projector(psi), None, spin1, 0.1, times)
    for r in rho_mean:
        validate_density(r, 3)
    assert np.linalg.norm(rho_mean[-1] - rho_exact[-1]) < 0.05


def test_ensemble_block_size_independence(spin1, monkeypatch):
    psi = haar_state(3, 50)
    # 301 records: in blocks of 3, the full blocks flush every record time
    # and the last 1-row block every 3, then 1; the one 10-row block of 256
    # flushes every 25 record times, then 1
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=300, seed=60)
    _, b = ensemble_average(psi, None, spin1, cfg, n_traj=10)
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 3)
    _, a = ensemble_average(psi, None, spin1, cfg, n_traj=10)
    assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("raw,message", [
    ("two", "must be an integer, got 'two'"),
    ("0", "must be a positive integer, got 0"),
    ("-3", "must be a positive integer, got -3"),
])
def test_thread_count_must_be_a_positive_integer(spin1, monkeypatch, raw, message):
    monkeypatch.setenv("GCSLOC_THREADS", raw)
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 2)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=10, seed=62)
    with pytest.raises(ValueError, match=f"GCSLOC_THREADS {message}"):
        ensemble_average(haar_state(3, 52), None, spin1, cfg, n_traj=4)


def test_ensemble_thread_count_invariance(spin1, monkeypatch):
    psi = haar_state(3, 51)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=50, seed=61)
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 2)
    _, ref = ensemble_average(psi, None, spin1, cfg, n_traj=8)
    monkeypatch.setenv("GCSLOC_THREADS", "2")
    _, par = ensemble_average(psi, None, spin1, cfg, n_traj=8)
    assert np.array_equal(ref, par)


def test_ensemble_observables_match_single_runs(spin1):
    initials = haar_states(3, 3, seed=800)
    # at stride 1 the 301 records of the 3-row block flush every 85 record
    # times, those of each single run every 256
    for steps, stride in [(50, 50), (300, 1)]:
        cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=steps, seed=90)
        times, rows = ensemble_observables(
            initials, None, spin1, cfg, n_traj=3, record_stride=stride
        )
        assert rows.shape == (3, steps // stride + 1, 7)
        for i in range(3):
            cfg_i = NoiseConfig(gamma=0.1, dt=1e-3, steps=steps, seed=90 + i)
            rec = simulate_trajectory(initials[i], None, spin1, cfg_i, record_stride=stride)
            ref = np.column_stack(
                [rec.uncertainty, rec.purity, rec.cov_trace_norm, rec.drift, rec.expectations]
            )
            assert np.max(np.abs(rows[i] - ref)) < 1e-12


def test_hamiltonian_trajectory_matches_ensemble_rows(spin1):
    # with a propagator, the buffered records of a 3-row block against single runs
    h = [0.4, -0.2, 0.7]
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=50, seed=91)
    initials = haar_states(3, 3, seed=801)
    _, rows = ensemble_observables(initials, h, spin1, cfg, n_traj=3, record_stride=1)
    for i in range(3):
        cfg_i = NoiseConfig(gamma=0.1, dt=1e-3, steps=50, seed=91 + i)
        rec = simulate_trajectory(initials[i], h, spin1, cfg_i, record_stride=1)
        ref = np.column_stack(
            [rec.uncertainty, rec.purity, rec.cov_trace_norm, rec.drift, rec.expectations]
        )
        assert np.max(np.abs(rows[i] - ref)) < 1e-12
    # replay trajectory 0 through the public single-step API
    _, rhos = ensemble_average(initials[0], h, spin1, cfg, n_traj=1, record_stride=1)
    cur = replayed_states(initials[0], h, spin1, cfg, cfg.steps)[-1]
    assert np.max(np.abs(rhos[-1] - projector(cur))) < 1e-12


def test_ensemble_thread_count_invariance_su6(monkeypatch):
    # three default-size blocks (256, 256, 88) through the GEMM kernel
    rep = build_sun_fundamental(6)
    psi = haar_state(6, 52)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=20, seed=62)
    monkeypatch.setenv("GCSLOC_THREADS", "1")
    _, ref = ensemble_average(psi, None, rep, cfg, n_traj=600, record_stride=5)
    monkeypatch.setenv("GCSLOC_THREADS", "2")
    _, par = ensemble_average(psi, None, rep, cfg, n_traj=600, record_stride=5)
    assert np.array_equal(ref, par)


@pytest.mark.parametrize("blocks", [1, 2, 3, 7])
@pytest.mark.parametrize("run", [ensemble_average, ensemble_observables])
def test_ensemble_output_independent_of_threads(monkeypatch, run, blocks):
    # su(3) through the operator route in blocks of 4, shared between the
    # calling process and GCSLOC_THREADS - 1 forked children a round
    monkeypatch.setattr(dynamics, "_STACK_LIMIT", 0)
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 4)
    rep = algebra("suN:n=3")
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=30, seed=63)
    psi = haar_state(3, 53)
    outs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("GCSLOC_THREADS", threads)
        outs.append(run(psi, [0.3, 0, 0, 0, 0, 0, 0, -0.2], rep, cfg, 4 * blocks - 1, 3)[1])
    assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])


@pytest.mark.parametrize("threads", [2, 3])
def test_calling_thread_steps_every_nth_block(spin1, monkeypatch, tmp_path, threads):
    # GCSLOC_THREADS counts the calling process, which runs blocks 0, n, 2n,
    # ..; each round forks n - 1 children for the rest.  Blocks run in
    # rounds of n, the last one partial: every block of a round ends before
    # any block of the next starts, even while the caller's block lags its
    # round.  A child's memory never reaches the caller, so every block
    # appends (lo, pid, start/end) to a log file
    log = tmp_path / "blocks.log"
    integrate = dynamics._integrate

    def note(lo, what):
        with open(log, "a") as fh:
            fh.write(f"{lo} {os.getpid()} {what}\n")

    def recorded(batch, prop, rep, cfg, lo, *rest):
        note(lo, "start")
        if os.getpid() == main:
            time.sleep(0.02)
        integrate(batch, prop, rep, cfg, lo, *rest)
        note(lo, "end")

    monkeypatch.setattr(dynamics, "_integrate", recorded)
    monkeypatch.setenv("GCSLOC_THREADS", str(threads))
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 2)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=5, seed=65)
    main = os.getpid()
    ensemble_average(haar_state(3, 56), None, spin1, cfg, n_traj=14)
    entries = [line.split() for line in log.read_text().splitlines()]
    ran = {int(lo): int(pid) for lo, pid, _ in entries}
    assert [ran[lo] == main for lo in range(0, 14, 2)] == [i % threads == 0 for i in range(7)]
    # a process per block of a round, so at most n at a time, as rounds
    # do not overlap
    for r in range(0, 7, threads):
        blocks = range(r, min(r + threads, 7))
        assert len({ran[2 * b] for b in blocks}) == len(blocks) <= threads
    rounds = [int(lo) // 2 // threads for lo, _, _ in entries]
    assert rounds == sorted(rounds)
    assert_no_children()


def assert_no_children():
    """Every child process of this one has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def spiked_rng(bad_seed, step):
    """A stream_rng whose trajectory seeded bad_seed draws NaN at step."""
    real_rng = dynamics.stream_rng

    class Spiked:
        def __init__(self, seed, stream):
            self.seed, self.rng = seed, real_rng(seed, stream)

        def standard_normal(self, shape, out=None):
            z = self.rng.standard_normal(shape, out=out)
            if self.seed == bad_seed:
                z[step - 1, 0] = np.nan
            return z

    return Spiked


@pytest.mark.parametrize("run", [ensemble_average, ensemble_observables])
@pytest.mark.parametrize("threads", ["2", "3"])
def test_forked_blocks_are_reaped_after_a_normal_run(spin1, monkeypatch, run, threads):
    monkeypatch.setenv("GCSLOC_THREADS", threads)
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 2)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=5, seed=66)
    run(haar_state(3, 57), None, spin1, cfg, n_traj=9)
    assert_no_children()


@pytest.mark.parametrize("bad_seed,threads,asleep", [(80, "2", 3), (83, "3", 6)])
def test_fault_kills_and_reaps_the_running_children(spin1, monkeypatch, bad_seed, threads, asleep):
    # trajectory 0 fails in the caller's block 0 while block 1 sleeps in
    # its child; trajectory 3 fails in block 1, the first child of a round
    # of three, while block 2 sleeps in the second.  The sleeping child is
    # killed, not awaited
    integrate = dynamics._integrate

    def sleepy(batch, prop, rep, cfg, lo, *rest):
        if lo == asleep:
            time.sleep(60)
        integrate(batch, prop, rep, cfg, lo, *rest)

    monkeypatch.setattr(dynamics, "_integrate", sleepy)
    monkeypatch.setattr(dynamics, "stream_rng", spiked_rng(bad_seed, 2))
    monkeypatch.setenv("GCSLOC_THREADS", threads)
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 3)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=10, seed=80)
    where = rf"\(step 2, trajectory {bad_seed - 80}, seed {bad_seed}\)"
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match=rf"blow-up.*{where}"):
        ensemble_average(haar_state(3, 58), None, spin1, cfg, n_traj=9)
    assert time.perf_counter() - t0 < 30
    assert_no_children()


class BlockFault(Exception):
    """A fault raised by one block, to be forwarded with its type."""


@pytest.mark.parametrize("fault", [BlockFault, KeyboardInterrupt])
def test_child_fault_reaches_the_caller_with_its_type(monkeypatch, fault):
    monkeypatch.setenv("GCSLOC_THREADS", "2")
    main = os.getpid()

    def run_block(lo):
        if os.getpid() != main:
            raise fault(f"block {lo} failed")
        return lo

    blocks = dynamics._in_block_order(run_block, range(3))
    assert next(blocks) == 0
    with pytest.raises(fault, match="block 1 failed"):
        next(blocks)
    assert_no_children()


def test_child_that_dies_without_a_result_is_a_runtime_error(monkeypatch):
    monkeypatch.setenv("GCSLOC_THREADS", "2")
    main = os.getpid()

    def run_block(lo):
        if os.getpid() != main:
            os._exit(1)
        return lo

    with pytest.raises(RuntimeError, match=r"block process \d+ ended without a result"):
        list(dynamics._in_block_order(run_block, range(2)))
    assert_no_children()


@pytest.mark.parametrize("fault", [BlockFault, KeyboardInterrupt])
def test_caller_fault_kills_and_reaps_the_children(monkeypatch, fault):
    monkeypatch.setenv("GCSLOC_THREADS", "3")
    main = os.getpid()

    def run_block(lo):
        if os.getpid() == main:
            raise fault(f"block {lo} failed")
        time.sleep(60)

    t0 = time.perf_counter()
    with pytest.raises(fault, match="block 0 failed"):
        list(dynamics._in_block_order(run_block, range(3)))
    assert time.perf_counter() - t0 < 30
    assert_no_children()


def test_closing_the_blocks_early_kills_and_reaps_the_children(monkeypatch):
    monkeypatch.setenv("GCSLOC_THREADS", "3")
    main = os.getpid()

    def run_block(lo):
        if os.getpid() != main:
            time.sleep(60)
        return lo

    blocks = dynamics._in_block_order(run_block, range(6))
    t0 = time.perf_counter()
    assert next(blocks) == 0
    blocks.close()
    assert time.perf_counter() - t0 < 30
    assert_no_children()


def test_blocks_run_in_the_caller_without_fork(spin1, monkeypatch):
    monkeypatch.setenv("GCSLOC_THREADS", "3")
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 2)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=5, seed=67)
    psi = haar_state(3, 59)
    _, forked = ensemble_observables(psi, None, spin1, cfg, n_traj=7)
    monkeypatch.delattr(os, "fork")
    pids = []
    assert list(dynamics._in_block_order(lambda lo: pids.append(os.getpid()), range(4))) == [None] * 4
    assert pids == [os.getpid()] * 4
    _, alone = ensemble_observables(psi, None, spin1, cfg, n_traj=7)
    assert np.array_equal(alone, forked)


@pytest.mark.parametrize("bad_seed", [81, 84, 87])
def test_threaded_blow_up_names_step_trajectory_and_seed(spin1, monkeypatch, bad_seed):
    # trajectories 1 and 7 are in blocks 0 and 2, on the calling thread;
    # trajectory 4 is in block 1, on the worker
    spike_noise(monkeypatch, bad_seed, 3, np.nan, 0)
    monkeypatch.setenv("GCSLOC_THREADS", "2")
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 3)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=10, seed=80)
    where = rf"\(step 4, trajectory {bad_seed - 80}, seed {bad_seed}\)"
    for run in (ensemble_average, ensemble_observables):
        with pytest.raises(RuntimeError, match=rf"blow-up.*{where}"):
            run(haar_state(3, 54), None, spin1, cfg, n_traj=9)


def test_step_basis_is_chosen_once_per_block(monkeypatch, tmp_path):
    # blocks may run in forked children, whose memory never reaches the
    # caller, so every stepper build appends its batch size to a log file
    log = tmp_path / "sizes.log"
    build = dynamics._batch_stepper

    def counted(rep, gamma, dt, n, prop=None):
        with open(log, "a") as fh:
            fh.write(f"{n}\n")
        return build(rep, gamma, dt, n, prop)

    monkeypatch.setattr(dynamics, "_batch_stepper", counted)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=20, seed=64)
    ensemble_average(haar_state(6, 55), None, algebra("suN:n=6"), cfg, 300)
    assert sorted(int(n) for n in log.read_text().split()) == [44, 256]


def test_operator_basis_rule(monkeypatch):
    calls = []
    action = dynamics._generator_action

    def counted(pf, rep):
        calls.append(len(pf))
        return action(pf, rep)

    monkeypatch.setattr(dynamics, "_generator_action", counted)

    def stacks(rep, n):
        """Whether a step of n states of rep forms the stacked X_k psi."""
        calls.clear()
        step = dynamics._batch_stepper(rep, 0.1, 1e-3, n)
        pf = haar_states(rep.dim_hilbert, n, seed=57).view(np.float64)
        out = step(pf, np.full((n, rep.dim_algebra), 1e-3))
        assert np.allclose(np.vecdot(out, out), 1.0, rtol=0, atol=1e-14)
        return calls == [n]

    def bound(rep, n):
        """The values a step of n states of rep binds from its block, by
        name; a name the route never assigns has an empty cell and is left
        out."""
        step = dynamics._batch_stepper(rep, 0.1, 1e-3, n)
        cells = zip(step.__code__.co_freevars, step.__closure__)
        return {name: cell.cell_contents for name, cell in cells if cell_filled(cell)}

    def cell_filled(cell):
        try:
            cell.cell_contents
        except ValueError:
            return False
        return True

    su6, spin20 = algebra("suN:n=6"), build_su2_irrep(40)
    # K = 35 > d = 6: the operator route once the stack of X_k psi, n K 2d
    # doubles, passes the limit
    assert 2 * 35 * 12 <= dynamics._STACK_LIMIT < 256 * 35 * 12
    assert stacks(su6, 2) and not stacks(su6, 256)
    assert "basis" not in bound(su6, 2) and "basis_t" not in bound(su6, 2)
    # the operator route binds the generators' real view and a contiguous
    # copy of its transpose
    nl = bound(su6, 256)
    ref = np.concatenate(
        [su6.generators.real[..., None], su6.generators.imag[..., None]], axis=-1
    ).reshape(35, 72)
    assert np.array_equal(nl["basis"], ref) and np.array_equal(nl["basis_t"], ref.T)
    assert nl["basis_t"].flags.c_contiguous
    # K = 3 < d = 41: the stack, however large the batch
    assert 256 * 3 * 82 > dynamics._STACK_LIMIT
    assert stacks(spin20, 256)
    assert "basis" not in bound(spin20, 256) and "basis_t" not in bound(spin20, 256)


def test_ensemble_initial_shape_errors(spin1):
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=5, seed=0)
    with pytest.raises(ValueError):
        ensemble_average(haar_states(3, 2, 0), None, spin1, cfg, n_traj=3)
    with pytest.raises(ValueError):
        ensemble_average(haar_state(3, 0), None, spin1, cfg, n_traj=0)


@pytest.mark.parametrize("run", [ensemble_average, ensemble_observables])
def test_per_trajectory_initials_errors_name_the_trajectory(spin1, run):
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=5, seed=0)
    initials = haar_states(3, 30, seed=34)
    scaled = initials.copy()
    scaled[17] *= 1.1
    unnormalized = r"^state is not normalized: \|psi\| = 1\.1 \(trajectory 17\)$"
    with pytest.raises(ValueError, match=unnormalized):
        run(scaled, None, spin1, cfg, 30)
    # the first failing row is named, whichever check it fails
    scaled[23, 1] = np.nan
    with pytest.raises(ValueError, match=r"\(trajectory 17\)"):
        run(scaled, None, spin1, cfg, 30)
    initials[23, 1] = np.nan
    not_finite = r"^state norm is not finite: \|psi\| = nan \(trajectory 23\)$"
    with pytest.raises(ValueError, match=not_finite):
        run(initials, None, spin1, cfg, 30)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("run", [ensemble_average, ensemble_observables])
@pytest.mark.parametrize("spec", ["su2:two_j=2", "suN:n=3"], ids=case_id("step"))
def test_lone_start_runs_as_that_start_given_per_trajectory(monkeypatch, spec, run, threads):
    # a start takes one check, lone or as a row: a lone start is the ensemble
    # of its tiled rows bit for bit; its norm is off 1 by 4e-12, so both paths
    # divide it, and 300 trajectories span two blocks
    monkeypatch.setenv("GCSLOC_THREADS", threads)
    rep = algebra(spec)
    start = (1 + 4e-12) * haar_state(rep.dim_hilbert, 44)
    assert abs(np.linalg.norm(start) - 1.0) > 1e-12
    h = np.linspace(-0.4, 0.7, rep.dim_algebra)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=12, seed=45)
    n_traj = 300
    assert dynamics.DEFAULT_BLOCK < n_traj <= 2 * dynamics.DEFAULT_BLOCK
    times, lone = run(start, h, rep, cfg, n_traj, 3)
    tiled_times, tiled = run(np.tile(start, (n_traj, 1)), h, rep, cfg, n_traj, 3)
    assert np.array_equal(tiled_times, times) and np.array_equal(tiled, lone)


@pytest.mark.parametrize("run", [ensemble_average, ensemble_observables])
def test_ensemble_counts_read_as_integers(spin1, run, monkeypatch):
    monkeypatch.setattr(dynamics, "DEFAULT_BLOCK", 1)
    cfg = NoiseConfig(gamma=0.1, dt=1e-3, steps=5, seed=0)
    psi = haar_state(3, 0)
    ref = run(psi, None, spin1, cfg, 2)[1]
    assert np.array_equal(run(psi, None, spin1, cfg, 2.0)[1], ref)
    for bad in (2.5, np.nan, 0, -5):
        with pytest.raises(ValueError, match="n_traj"):
            run(psi, None, spin1, cfg, bad)


def test_lindblad_steps_read_as_integers(spin1):
    rho0 = projector(haar_state(3, 75))
    times, ref = lindblad_evolve(rho0, None, spin1, 0.1, 1e-3, 2)
    got = lindblad_evolve(rho0, None, spin1, 0.1, 1e-3, 2.0)
    assert np.array_equal(got[0], times) and np.array_equal(got[1], ref)
    for bad in (2.5, np.nan, 0, -5):
        with pytest.raises(ValueError, match="steps"):
            lindblad_evolve(rho0, None, spin1, 0.1, 1e-3, bad)


# ---------------------------------------------------------- master equation


def test_lindblad_evolve_matches_expm_oracle(spin1):
    rng = np.random.default_rng(14)
    h = rng.uniform(-1, 1, 3)
    rho0 = projector(haar_state(3, 70))
    gamma, dt, steps = 0.2, 1e-3, 100
    times, rhos = lindblad_evolve(rho0, h, spin1, gamma, dt, steps, record_stride=25)
    sup = lindblad_superoperator(h, spin1, gamma)
    ref = [(scipy.linalg.expm(sup * t) @ rho0.reshape(-1)).reshape(3, 3) for t in times]
    assert np.max(np.abs(rhos - np.array(ref))) < 1e-10


def test_lindblad_preserves_density_structure(spin1):
    rho0 = projector(haar_state(3, 71))
    times, rhos = lindblad_evolve(rho0, [0.1, 0.2, 0.3], spin1, 0.3, 1e-3, 200,
                                  record_stride=50)
    for r in rhos:
        validate_density(r, 3)
    # purity decays monotonically under the double-commutator dissipator
    purity = [float(np.real(np.trace(r @ r))) for r in rhos]
    assert all(b <= a + 1e-12 for a, b in zip(purity, purity[1:]))
    assert purity[-1] < purity[0]


def test_lindblad_gamma_zero_is_unitary(spin1):
    rng = np.random.default_rng(15)
    h = rng.uniform(-1, 1, 3)
    rho0 = projector(haar_state(3, 72))
    _, rhos = lindblad_evolve(rho0, h, spin1, 0.0, 1e-3, 300, record_stride=300)
    before = np.sort(np.linalg.eigvalsh(rho0))
    after = np.sort(np.linalg.eigvalsh(rhos[-1]))
    assert np.max(np.abs(before - after)) < 1e-10


def test_checked_flow_rejects_positivity_loss():
    # the check on each record of the flow: trace kept, one eigenvalue -0.1
    rho = projector(haar_state(3, 73))
    with pytest.raises(RuntimeError, match="positivity"):
        dynamics._checked_flow(np.diag([1.1, -0.1, 0.0]), rho)


def test_lindblad_fixed_point_is_maximally_mixed(spin1):
    # the dissipator is unital; the flow relaxes toward I/d
    rho0 = projector(haar_state(3, 74))
    _, rhos = lindblad_evolve(rho0, None, spin1, 0.5, 5e-3, 4000, record_stride=4000)
    assert np.max(np.abs(rhos[-1] - np.eye(3) / 3.0)) < 1e-3


def test_lindblad_flow_rejects_non_finite_input(spin1):
    rho0 = projector(haar_state(3, 76))
    for gamma in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            lindblad_expm_evolve(rho0, None, spin1, gamma, [0.0, 0.1])
    for times in ([0.0, np.nan], [0.0, np.inf], [0.1, -0.1]):
        with pytest.raises(ValueError, match="finite nonnegative"):
            lindblad_expm_evolve(rho0, None, spin1, 0.1, times)
    for dt in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            lindblad_evolve(rho0, None, spin1, 0.1, dt, 10)


def test_exact_flow_on_non_uniform_times(spin1):
    h = [0.2, -0.5, 0.3]
    rho0 = projector(haar_state(3, 78))
    times = np.array([0.7, 0.0, 0.05, 1.3, 0.05, 0.31])
    out = lindblad_expm_evolve(rho0, h, spin1, 0.3, times)
    sup = lindblad_superoperator(h, spin1, 0.3)
    for t, rho in zip(times, out):
        ref = (scipy.linalg.expm(sup * t) @ rho0.reshape(-1)).reshape(3, 3)
        assert np.max(np.abs(rho - ref)) < 1e-12


def test_exact_flow_eigh_calls_do_not_grow_with_records(spin1, monkeypatch):
    # the same decompositions serve every record time, and none is of a
    # matrix larger than d x d: the flow never forms the (d^2, d^2) generator
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rho0 = projector(haar_state(3, 79))
    h = [0.2, -0.5, 0.3]

    def eigh_calls(h, times):
        calls.clear()
        lindblad_expm_evolve(rho0, h, spin1, 0.1, times)
        return list(calls)

    few, many = [0.1, 0.2, 0.5, 0.8], np.arange(1, 401) * 0.0123
    free = eigh_calls(None, few)
    assert eigh_calls(None, many) == free
    assert eigh_calls(h, many) == eigh_calls(h, few)
    assert sorted(eigh_calls(h, few)) == sorted(free + [(3, 3)])
    assert max(max(shape[-2:]) for shape in free) <= 3
    calls.clear()
    lindblad_evolve(rho0, None, spin1, 0.1, 1e-3, 5000, record_stride=10)
    assert calls == free


@pytest.mark.parametrize(
    "spec",
    [f"su2:two_j={two_j}" for two_j in (1, 4, 8, 16)]
    + ["suN:n=3", "suN:n=6", "suN:n=3,dynkin=1,1", "suN:n=4,dynkin=1,0,1", "suN:n=3,dynkin=3,0"],
    ids=["su2-1", "su2-4", "su2-8", "su2-16", "su3", "su6", "su3-adjoint", "su4-adjoint",
         "su3-sym3"],
)
def test_spectral_flow_matches_scipy_expm(spec):
    rep = algebra(spec)
    # the adjoints have repeated weights: the grading element has a
    # repeated eigenvalue there
    rng = np.random.default_rng(80)
    h = rng.uniform(-1, 1, rep.dim_algebra)
    d = rep.dim_hilbert
    rho0 = projector(haar_state(d, 81))
    times = np.array([0.4, 3.0, 0.0, 1.1, 0.4, 0.02])
    out = lindblad_expm_evolve(rho0, h, rep, 0.2, times)
    sup = lindblad_superoperator(h, rep, 0.2)
    for t, rho in zip(times, out):
        ref = (scipy.linalg.expm(sup * t) @ rho0.reshape(-1)).reshape(d, d)
        assert np.max(np.abs(rho - ref)) < 1e-12


def test_flow_without_measurement_is_unitary_conjugation():
    rep = build_su2_irrep(4)
    h = [0.3, -0.8, 0.5]
    rho0 = projector(haar_state(5, 82))
    times = np.array([2.5, 0.0, 0.7])
    out = lindblad_expm_evolve(rho0, h, rep, 0.0, times)
    for t, rho in zip(times, out):
        u = scipy.linalg.expm(-1j * t * hmatrix(rep, h))
        assert np.max(np.abs(rho - u @ rho0 @ u.conj().T)) < 1e-13


def test_superoperator_matches_rhs(spin1):
    rng = np.random.default_rng(16)
    h = rng.uniform(-1, 1, 3)
    sup = lindblad_superoperator(h, spin1, 0.4)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = z + z.conj().T
    lhs = (sup @ rho.reshape(-1)).reshape(3, 3)
    # reference: commutator plus double-commutator form evaluated directly
    ham = hmatrix(spin1, h)
    ref = -1j * (ham @ rho - rho @ ham)
    for x in spin1.generators:
        ref -= 0.4 * (x @ (x @ rho) - 2.0 * x @ rho @ x + (rho @ x) @ x)
    assert np.max(np.abs(lhs - ref)) < 1e-12


@pytest.mark.parametrize("two_j, gamma", [(46, 0.3), (80, 0.7)], ids=["d47", "d81"])
def test_flow_past_d_45_decays_in_closed_form(two_j, gamma):
    # d = 47 and 81: a dense (d^2, d^2) generator would not fit in 64 MiB,
    # and at d = 81 the blocks' eigenvalues reach -gamma c_adj 3240.
    # Without H, <X_i>(t) = exp(-gamma c_adj t) <X_i>(0), since the
    # dissipator maps X_i to -gamma c_adj X_i and is self-adjoint.
    rep = build_su2_irrep(two_j)
    times = np.array([0.0, 0.05, 0.4, 1.5])
    rho0 = projector(haar_state(two_j + 1, 83))
    out = lindblad_expm_evolve(rho0, None, rep, gamma, times)
    assert np.max(np.abs(np.trace(out, axis1=1, axis2=2) - 1.0)) < 1e-12
    x = np.real(np.einsum("kab,tba->tk", rep.generators, out))
    decay = np.exp(-gamma * rep.adjoint_casimir * times)[:, None] * x[0]
    assert np.max(np.abs(x - decay)) < 1e-11


def test_validate_density_errors(spin1):
    with pytest.raises(ValueError, match="square"):
        validate_density(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        validate_density(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="negativity"):
        validate_density(np.diag([1.5, -0.5]).astype(complex))
    # a NaN passes every `resid > tol` test, and an all-NaN matrix stops eigvalsh
    with pytest.raises(ValueError, match="finite"):
        validate_density(np.diag([np.nan, 0.5, 0.5]), 3)
    with pytest.raises(ValueError, match="finite"):
        validate_density(np.full((3, 3), np.nan), 3)
    with pytest.raises(ValueError, match="finite"):
        lindblad_expm_evolve(np.diag([np.nan, 0.5, 0.5]), None, spin1, 0.1, [0.0, 1.0])
