import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    algebra,
    case_id,
    conjugated,
    decomposed,
    kappa_loc,
    reference_moments,
    rng_haar_state,
    sym3_su3_trace_norm_minimizer,
)
from gcsloc.algebra import algebra_from_generators, build_su2_irrep, unitary_exp
from gcsloc.cartan import (
    align_expectation_to_cartan,
    generate_gcs,
    highest_weight_state,
)
from gcsloc.dynamics import (
    DEFAULT_BLOCK,
    _centred,
    _moments,
    _observe_batch,
    _purity,
    _second,
    _tnorm,
    haar_states,
)
from gcsloc.observables import (
    cartan_split_sums,
    covariance_matrix,
    covariance_trace_norm,
    expectation_vector,
    generalized_purity,
    localization_drift,
    root_pair_closed_form,
    total_uncertainty,
    uncertainty_bounds,
)


@pytest.mark.parametrize("two_j", [2, 3, 4])
def test_extremal_state_oracles(two_j):
    rep = build_su2_irrep(two_j)
    j = two_j / 2.0
    top = np.zeros(two_j + 1, dtype=complex)
    top[0] = 1.0  # |j, j>, the m-descending ladder convention

    assert np.allclose(expectation_vector(top, rep), [0.0, 0.0, j], atol=1e-12)
    assert generalized_purity(top, rep) == pytest.approx(j * j, rel=1e-12)
    assert total_uncertainty(top, rep) == pytest.approx(j, rel=1e-12)

    m = covariance_matrix(top, rep)
    assert np.allclose(m, np.diag([j, j, 0.0]), atol=1e-12)
    assert covariance_trace_norm(top, rep) == pytest.approx(2 * j * j, rel=1e-12)
    assert localization_drift(top, rep, gamma=0.3) == pytest.approx(0.0, abs=1e-10)


def test_entangled_state_brute_force():
    rep = build_su2_irrep(2)
    psi = np.array([1.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)

    # hand values: the state is the null eigenvector of J_y, so
    # <J_y^2> = 0; <J_x^2> = <J_z^2> = 1 and all first moments vanish
    v = expectation_vector(psi, rep)
    assert np.allclose(v, [0.0, 0.0, 0.0], atol=1e-12)
    m = covariance_matrix(psi, rep)
    assert np.allclose(m, np.diag([2.0, 0.0, 2.0]), atol=1e-12)
    assert total_uncertainty(psi, rep) == pytest.approx(2.0, rel=1e-12)
    assert covariance_trace_norm(psi, rep) == pytest.approx(8.0, rel=1e-12)

    assert np.max(np.abs(m - reference_moments(psi[None], rep)[1][0])) < 1e-12


@pytest.mark.parametrize("spec", ["su2:two_j=3", "suN:n=3"], ids=case_id("builder"))
def test_covariance_matches_brute_force(spec):
    rep = algebra(spec)
    for seed in range(4):
        psi = rng_haar_state(rep.dim_hilbert, 40 + seed)
        m = covariance_matrix(psi, rep)
        assert np.max(np.abs(m - reference_moments(psi[None], rep)[1][0])) < 1e-11
        assert np.max(np.abs(m - m.T)) < 1e-12
        # diagonal entries are variances (scaled by 2), hence nonnegative
        assert np.min(np.diag(m)) > -1e-12


def test_spin_half_is_structureless():
    # every pure qubit state sits on the coherent orbit: constant
    # uncertainty, constant squared covariance norm, zero drift
    rep = build_su2_irrep(1)
    for seed in range(100):
        psi = rng_haar_state(2, seed)
        assert total_uncertainty(psi, rep) == pytest.approx(0.5, abs=1e-10)
        assert covariance_trace_norm(psi, rep) == pytest.approx(0.5, abs=1e-10)
        assert localization_drift(psi, rep, 1.0) == pytest.approx(0.0, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_uncertainty_purity_sum_rule(seed):
    rep = build_su2_irrep(4)
    psi = rng_haar_state(5, seed)
    delta = total_uncertainty(psi, rep)
    p = generalized_purity(psi, rep)
    assert delta + p == pytest.approx(rep.casimir_eigenvalue, abs=1e-10)
    assert delta > 0.0


@pytest.mark.parametrize("spec", ["su2:two_j=2", "su2:two_j=4", "suN:n=3"], ids=case_id("builder"))
def test_drift_never_positive(spec):
    rep = algebra(spec)
    for seed in range(200):
        psi = rng_haar_state(rep.dim_hilbert, seed)
        assert localization_drift(psi, rep, gamma=0.25) <= 1e-12


def test_drift_zero_on_coherent_orbit():
    rep, cartan = decomposed("su2:two_j=4")
    rng = np.random.default_rng(7)
    for _ in range(25):
        psi = generate_gcs(rep, cartan, rng.uniform(-2, 2, 3))
        assert abs(localization_drift(psi, rep, gamma=0.1)) < 1e-9


def test_drift_negative_gamma_rejected():
    rep = build_su2_irrep(2)
    psi = rng_haar_state(3, 0)
    with pytest.raises(ValueError, match="gamma"):
        localization_drift(psi, rep, gamma=-0.1)


def test_drift_non_finite_gamma_rejected():
    with pytest.raises(ValueError, match="finite"):
        localization_drift(rng_haar_state(3, 0), build_su2_irrep(2), gamma=float("nan"))


# Sym^p su(N), spin p/2 and the defining su(N) among them: delta_min =
# p(N - 1)/2 and c = p(p + N)(N - 1)/(2N); the su(N) adjoint: N - 1 and N
@pytest.mark.parametrize("spec,expected", [
    ("su2:two_j=2", (1.0, 2.0)),
    ("su2:two_j=3", (1.5, 3.75)),
    ("su2:two_j=4", (2.0, 6.0)),
    ("suN:n=2", (0.5, 0.75)),
    ("suN:n=3", (1.0, 4.0 / 3.0)),
    ("suN:n=4", (1.5, 15.0 / 8.0)),
    ("suN:n=3,dynkin=2,0", (2.0, 10.0 / 3.0)),
    ("suN:n=3,dynkin=3,0", (3.0, 6.0)),
    ("suN:n=4,dynkin=2,0,0", (3.0, 4.5)),
    ("suN:n=3,dynkin=1,1", (2.0, 3.0)),
    ("suN:n=4,dynkin=1,0,1", (3.0, 4.0)),
], ids=case_id("builder"))
def test_uncertainty_bounds_values(spec, expected):
    delta_min, c = uncertainty_bounds(*decomposed(spec))
    assert delta_min == pytest.approx(expected[0], abs=1e-10)
    assert c == pytest.approx(expected[1], abs=1e-10)


def test_uncertainty_range_on_haar_states():
    rep, cartan = decomposed("su2:two_j=3")
    delta_min, c = uncertainty_bounds(rep, cartan)
    for seed in range(300):
        d = total_uncertainty(rng_haar_state(4, seed), rep)
        assert delta_min - 1e-10 <= d <= c + 1e-10


@pytest.mark.parametrize("make,expected", [
    pytest.param(lambda: algebra("su2:two_j=2"), (4, 4, 1), id="spin1"),
    pytest.param(lambda: algebra("su2:two_j=3"), (2, 8, 2), id="spin3half"),
    pytest.param(lambda: algebra("su2:two_j=4"), (2, 12, 3), id="spin2"),
    pytest.param(lambda: conjugated(algebra("su2:two_j=4")), (2, 12, 3), id="spin2-conjugated"),
    pytest.param(lambda: algebra("su2:two_j=6"), (2, 20, 5), id="spin3"),
    pytest.param(lambda: algebra("suN:n=3,dynkin=2,0"), (4, 4, 3), id="su3-sym2"),
    pytest.param(lambda: algebra("suN:n=3,dynkin=1,1"), (4, 6, 4), id="su3-adjoint"),
    pytest.param(lambda: algebra("suN:n=3,dynkin=3,0"), (2, 8, 7), id="su3-sym3"),
])
def test_kappa_loc_at_highest_weight(make, expected):
    # the rate bound's extremes on the complement N of the orbit's tangent
    # space, and dim_C N; spin j reads kappa_loc = 2 for every j >= 3/2
    lo, hi, dim_n = kappa_loc(make())
    assert dim_n == expected[2]
    assert lo == pytest.approx(expected[0], abs=1e-4)
    assert hi == pytest.approx(expected[1], abs=1e-4)


@pytest.mark.parametrize("spec", ["su2:two_j=2", "suN:n=3"], ids=case_id("builder"))
def test_uncertainty_bounds_reject_root_data_of_another_normalization(spec):
    rep, cartan = decomposed(spec)
    with pytest.raises(ValueError, match="normalization inconsistency"):
        uncertainty_bounds(algebra_from_generators(2.0 * rep.generators), cartan)


@pytest.mark.parametrize("spec", ["su2:two_j=4", "suN:n=3"], ids=case_id("builder"))
def test_split_partition_sums_to_total(spec):
    # the four-sector partition is an exact rewriting for any state,
    # aligned or not
    rep, cartan = decomposed(spec)
    for seed in range(10):
        psi = rng_haar_state(rep.dim_hilbert, 600 + seed)
        split = cartan_split_sums(psi, rep, cartan)
        t = covariance_trace_norm(psi, rep)
        parts = (
            split.cartan_block
            + split.mixed_block
            + split.same_line_block
            + split.cross_line_block
        )
        assert split.total == pytest.approx(t, rel=1e-10)
        assert parts == pytest.approx(split.total, rel=1e-10)
        assert min(split.cartan_block, split.mixed_block,
                   split.same_line_block, split.cross_line_block) > -1e-12


@pytest.mark.parametrize("spec", ["su2:two_j=3", "su2:two_j=4", "suN:n=3"], ids=case_id("builder"))
def test_ladder_closed_form_in_cartan_gauge(spec):
    rep, cartan = decomposed(spec)
    for seed in range(6):
        psi = align_expectation_to_cartan(
            rng_haar_state(rep.dim_hilbert, 700 + seed), rep, cartan
        )
        split = cartan_split_sums(psi, rep, cartan)
        assert root_pair_closed_form(psi, cartan) == pytest.approx(
            split.same_line_block, abs=1e-8
        )


def test_extremal_split_is_pure_cartan():
    # at |j, j> the covariance matrix is diagonal in the adapted basis with
    # no mixed or cross sectors
    rep, cartan = decomposed("su2:two_j=4")
    split = cartan_split_sums(highest_weight_state(cartan), rep, cartan)
    j = 2.0
    assert split.cartan_block == pytest.approx(0.0, abs=1e-12)
    assert split.mixed_block == pytest.approx(0.0, abs=1e-12)
    assert split.same_line_block == pytest.approx(2 * j * j, rel=1e-12)
    assert split.cross_line_block == pytest.approx(0.0, abs=1e-12)


def test_rejects_unnormalized_state():
    rep = build_su2_irrep(2)
    bad = np.array([1.0, 1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="normal"):
        total_uncertainty(bad, rep)
    with pytest.raises(ValueError, match="normal"):
        covariance_matrix(bad, rep)


def test_rejects_non_finite_state():
    rep = build_su2_irrep(2)
    bad = np.array([np.nan, 0.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="not finite"):
        covariance_trace_norm(bad, rep)
    with pytest.raises(ValueError, match="not finite"):
        expectation_vector(bad, rep)


@pytest.mark.parametrize("seed", [0, 1])
def test_orbit_minimizes_trace_norm_not_squared_norm_on_sym3_su3(seed):
    # Sym^3 of su(3), d = 10: a pure state lies below the orbit value of
    # T = sum M^2, while tr M = 2 Delta >= 2 delta_min and the drift <= 0
    # still hold there, as the paper claims
    rep, psi = sym3_su3_trace_norm_minimizer(seed)
    cartan = decomposed("suN:n=3,dynkin=3,0")[1]
    delta_min, _ = uncertainty_bounds(rep, cartan)
    t_hw = covariance_trace_norm(highest_weight_state(cartan), rep)
    assert covariance_trace_norm(psi, rep) < t_hw - 0.05
    assert total_uncertainty(psi, rep) >= delta_min - 1e-9
    assert localization_drift(psi, rep, 0.1) <= 1e-9


# ------------------------------------ stacked kernels against per-root loops


SPIN = ["su2:two_j=1", "su2:two_j=2", "su2:two_j=4", "su2:two_j=8"]
SU3_ADJOINT, SU3_SYM2 = "suN:n=3,dynkin=1,1", "suN:n=3,dynkin=2,0"
# K < 2d on su(2), Sym^2 su(3) and the su(3) adjoint; K > 2d on defining su(N >= 3)
STACKED = SPIN + ["suN:n=3", "suN:n=4", "suN:n=6", SU3_ADJOINT, SU3_SYM2]
# one state as a row against the batch kernel: K <= 2d on su(2), Sym^2 su(3)
# and the su(3) adjoint, K > 2d on su(3) and su(6), so both Gram sides run
ROWS = SPIN[:3] + ["su2:two_j=16", "suN:n=3", "suN:n=6", SU3_SYM2, SU3_ADJOINT]


def loop_closed_form(psi, cartan):
    """The root-pair closed form, six matvecs per raising operator."""
    out = 0.0
    for E in cartan.raising_ops:
        e2 = complex(psi.conj() @ (E @ (E @ psi)))
        anti = float(np.real(psi.conj() @ (E @ (E.conj().T @ psi) + E.conj().T @ (E @ psi))))
        out += 8.0 * abs(e2) ** 2 + 2.0 * anti**2
    return out


def loop_split(psi, rep, cartan):
    """The sector partition with one same-line 2 x 2 block per root."""
    o = cartan.basis_rotation
    mt = o @ covariance_matrix(psi, rep) @ o.T
    sq = mt * mt
    r = cartan.rank
    same = sum(float(np.sum(sq[p : p + 2, p : p + 2])) for p in range(r, len(sq), 2))
    root_total = float(np.sum(sq[r:, r:]))
    return (
        float(np.sum(sq[:r, :r])),
        float(np.sum(sq[:r, r:]) + np.sum(sq[r:, :r])),
        same,
        root_total - same,
        float(np.sum(sq)),
    )


@pytest.mark.parametrize("spec", STACKED, ids=case_id("short"))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_stacked_root_sums_match_per_root_loops(spec, seed):
    rep, cartan = decomposed(spec)
    psi = align_expectation_to_cartan(rng_haar_state(rep.dim_hilbert, seed), rep, cartan)
    assert root_pair_closed_form(psi, cartan) == pytest.approx(loop_closed_form(psi, cartan), rel=1e-12)
    split = cartan_split_sums(psi, rep, cartan)
    got = [split.cartan_block, split.mixed_block, split.same_line_block, split.cross_line_block, split.total]
    # relative to T: the sectors that vanish in the Cartan gauge are rounding noise
    assert np.max(np.abs(np.subtract(got, loop_split(psi, rep, cartan)))) <= 1e-12 * split.total


@pytest.mark.parametrize("spec", STACKED, ids=case_id("short"))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(min_value=1, max_value=40))
def test_gram_form_t_is_the_squared_covariance_norm(spec, seed, n):
    rep = algebra(spec)
    states = haar_states(rep.dim_hilbert, n, seed)
    ref = np.array([np.sum(covariance_matrix(psi, rep) ** 2) for psi in states])
    assert np.max(np.abs(_tnorm(_centred(*_moments(states, rep))) - ref) / ref) <= 1e-12
    psi = states[0]
    t = np.sum(covariance_matrix(psi, rep) ** 2)
    assert covariance_trace_norm(psi, rep) == pytest.approx(t, rel=1e-12)


def covariance_formula_rows(states, rep, gamma):
    """Record rows with T = sum M^2 from the K x K covariance matrix, in
    blocks of DEFAULT_BLOCK states as ``_observe_batch`` takes them."""
    rows = []
    for lo in range(0, len(states), DEFAULT_BLOCK):
        pf = np.ascontiguousarray(states[lo : lo + DEFAULT_BLOCK]).view(np.float64)
        z = (pf @ rep.moment_stack).reshape(len(pf), rep.dim_algebra, pf.shape[1])
        v = np.matvec(z, pf)
        second = np.einsum("nkj,nkj->n", z, z)
        purity = np.einsum("nk,nk->n", v, v)
        u = z - v[:, :, None] * pf[:, None, :]
        m = np.matmul(u, u.transpose(0, 2, 1))
        m *= 2.0
        tnorm = np.einsum("nkl,nkl->n", m, m)
        drift = 2.0 * gamma * (rep.adjoint_casimir * purity - tnorm)
        rows.append(np.column_stack([second - purity, purity, tnorm, drift, v]))
    return np.concatenate(rows)


@pytest.mark.parametrize("spec", SPIN, ids=case_id("short"))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(min_value=1, max_value=600))
def test_su2_record_rows_keep_the_covariance_formula_bit_for_bit(spec, seed, n):
    # K = 3 <= 2d: T still comes from the K x K Gram matrix, so simulate's
    # CSV bytes do not move
    rep = algebra(spec)
    states = haar_states(rep.dim_hilbert, n, seed)
    assert np.array_equal(_observe_batch(states, rep, 0.1), covariance_formula_rows(states, rep, 0.1))


def two_temporary_moments(states, rep):
    """(v, <C>, P, U, T) with the centred stack formed as z - v psi, two
    temporaries of the (n, K, 2d) shape."""
    pf = np.ascontiguousarray(states).view(np.float64)
    z = (pf @ rep.moment_stack).reshape(len(pf), rep.dim_algebra, pf.shape[1])
    v = np.matvec(z, pf)
    u = z - v[:, :, None] * pf[:, None, :]
    ut = u.transpose(0, 2, 1)
    gram = u @ ut if u.shape[1] <= u.shape[2] else ut @ u
    tnorm = 4.0 * np.einsum("nkl,nkl->n", gram, gram)
    return v, np.einsum("nkj,nkj->n", z, z), np.einsum("nk,nk->n", v, v), u, tnorm


@pytest.mark.parametrize("spec", ["suN:n=3", "suN:n=6"], ids=case_id("short"))
@pytest.mark.parametrize("n", [1, DEFAULT_BLOCK])
def test_moments_keep_the_two_temporary_formula_bit_for_bit(spec, n):
    # K > 2d: T from the 2d x 2d Gram matrix; su(2) is covered by the
    # record-row test above
    rep = algebra(spec)
    states = haar_states(rep.dim_hilbert, n, 17 + n)
    pf, z, v = _moments(states, rep)
    u = _centred(pf, z, v)
    ref = two_temporary_moments(states, rep)
    for got, want in zip((v, _second(z), _purity(v), u, _tnorm(u)), ref):
        assert np.array_equal(got, want)


def test_moments_hold_two_centred_stacks_at_peak():
    # 256 su(6) states: z, the centred stack and the 2d x 2d Gram matrices
    # (0.34 of a stack), not a third (n, K, 2d) temporary
    rep = algebra("suN:n=6")
    states = haar_states(rep.dim_hilbert, DEFAULT_BLOCK, 5)
    stack = states.shape[0] * rep.dim_algebra * 2 * rep.dim_hilbert * 8

    def record_moments():
        pf, z, v = _moments(states, rep)
        return _second(z), _purity(v), _tnorm(_centred(pf, z, v))

    record_moments()
    tracemalloc.start()
    try:
        record_moments()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * stack


PER_STATE = {
    f.__name__: f
    for f in (expectation_vector, generalized_purity, total_uncertainty, covariance_matrix, covariance_trace_norm)
} | {"localization_drift": lambda psi, rep: localization_drift(psi, rep, 0.3)}


@pytest.mark.parametrize("spec", ROWS, ids=case_id("short"))
def test_one_state_row_matches_its_batch_row(spec):
    # each per-state function against the row _observe_batch records for the
    # same state, relative to the size of what it sums
    rep = algebra(spec)
    states, gamma = haar_states(rep.dim_hilbert, 8, 23), 0.3
    c, c_adj = rep.casimir_eigenvalue, rep.adjoint_casimir
    for psi, (unc, pur, tnorm, drift, *v) in zip(states, _observe_batch(states, rep, gamma)):
        assert np.max(np.abs(expectation_vector(psi, rep) - v)) <= 1e-12 * np.sqrt(c)
        assert generalized_purity(psi, rep) == pytest.approx(pur, rel=1e-12, abs=1e-12 * c)
        assert total_uncertainty(psi, rep) == pytest.approx(unc, rel=1e-12)
        assert covariance_trace_norm(psi, rep) == pytest.approx(tnorm, rel=1e-12)
        assert np.sum(covariance_matrix(psi, rep) ** 2) == pytest.approx(tnorm, rel=1e-12)
        # D is a difference of two terms that cancel on the orbit
        assert abs(localization_drift(psi, rep, gamma) - drift) <= 1e-12 * 2 * gamma * (c_adj * pur + tnorm)


@pytest.mark.parametrize("spec", ROWS, ids=case_id("short"))
def test_coherent_state_matches_the_unitary_on_the_highest_weight(spec):
    rep, cartan = decomposed(spec)
    hw = highest_weight_state(cartan)
    for params in np.random.default_rng(7).normal(size=(8, rep.dim_algebra)):
        ref = unitary_exp(np.tensordot(params, rep.generators, 1)) @ hw
        assert np.max(np.abs(generate_gcs(rep, cartan, params) - ref)) <= 1e-13


@pytest.mark.parametrize("name", PER_STATE)
def test_per_state_functions_refuse_a_batch_and_an_unnormalized_state(name):
    rep, cartan = decomposed("su2:two_j=4")
    psi, func = highest_weight_state(cartan), PER_STATE[name]
    with pytest.raises(ValueError, match=r"^state must have shape \(5,\), got \(1, 5\)$"):
        func(psi[None], rep)
    with pytest.raises(ValueError, match=r"^state is not normalized: \|psi\| = 2$"):
        func(2.0 * psi, rep)
