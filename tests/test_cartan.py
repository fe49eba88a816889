import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from conftest import (
    algebra,
    case_id,
    conjugated,
    decomposed,
    rng_haar_state,
    sym3_su3_trace_norm_minimizer,
)
from gcsloc import cartan as cartan_module
from gcsloc.algebra import algebra_from_generators
from gcsloc.cartan import (
    align_expectation_to_cartan,
    cartan_decompose,
    generate_gcs,
    highest_weight_state,
    weight_string,
)
from gcsloc.observables import (
    covariance_trace_norm,
    generalized_purity,
    localization_drift,
    total_uncertainty,
    uncertainty_bounds,
)


def comm(a, b):
    return a @ b - b @ a


def test_su2_rank_and_roots():
    rep, cartan = decomposed("su2:two_j=2")
    assert cartan.rank == 1
    assert cartan.n_positive == 1
    assert np.allclose(cartan.positive_roots, [[1.0]], atol=1e-10)
    assert np.allclose(np.sort(cartan.roots, axis=0), [[-1.0], [1.0]], atol=1e-10)
    # the diagonal generator is preferred as the Cartan direction
    assert np.allclose(cartan.cartan_generators[0], rep.generators[2], atol=1e-12)
    assert np.allclose(cartan.highest_weight, [1.0], atol=1e-10)
    assert np.allclose(cartan.positive_root_sum, [1.0], atol=1e-10)


@pytest.mark.parametrize("two_j", [1, 2, 3, 5])
def test_su2_weights_are_m_ladder(two_j):
    rep, cartan = decomposed(f"su2:two_j={two_j}")
    j = two_j / 2.0
    expected = j - np.arange(two_j + 1)
    assert np.allclose(cartan.weights[:, 0], expected, atol=1e-10)
    assert cartan.highest_weight_index == 0
    # weight basis columns are the standard basis since J_z is diagonal
    # with m descending
    overlap = np.abs(cartan.weight_basis) - np.eye(two_j + 1)
    assert np.max(np.abs(overlap)) < 1e-10


def test_su2_raising_op_is_jplus():
    rep, cartan = decomposed("su2:two_j=2")
    jp = rep.generators[0] + 1j * rep.generators[1]
    e = cartan.raising_ops[0]
    # proportional with |ratio| fixed by tr(E^dag E) = lam
    ratio = np.vdot(jp, e) / np.vdot(jp, jp)
    assert np.max(np.abs(e - ratio * jp)) < 1e-10
    assert abs(abs(ratio) - np.sqrt(rep.normalization / np.trace(jp.conj().T @ jp).real)) < 1e-10


def test_su3_rank_roots_weights():
    rep, cartan = decomposed("suN:n=3")
    assert cartan.roots.shape == (6, 2)

    # weight set of the defining representation, order-insensitive
    s3 = np.sqrt(3.0)
    expected = {(0.5, round(1 / (2 * s3), 12)), (-0.5, round(1 / (2 * s3), 12)),
                (0.0, round(-1 / s3, 12))}
    got = {tuple(np.round(w, 12)) for w in cartan.weights}
    assert got == expected

    assert np.allclose(cartan.highest_weight, [0.5, 1 / (2 * s3)], atol=1e-9)
    assert np.allclose(cartan.positive_root_sum, [2.0, 0.0], atol=1e-9)


def rounded_set(rows):
    return {tuple(np.round(row, 9) + 0.0) for row in rows}


@pytest.mark.parametrize("n", [3, 4, 6])
def test_sun_rank_roots_weights(n):
    rep, cartan = decomposed(f"suN:n={n}")
    assert cartan.rank == n - 1
    assert cartan.n_positive == n * (n - 1) // 2
    assert cartan.weights.shape == (n, n - 1)

    # roots come in opposite pairs and all have squared length 1
    assert rounded_set(cartan.roots) == rounded_set(-cartan.roots)
    assert np.allclose(np.sum(cartan.roots, axis=0), 0.0, atol=1e-9)
    assert np.allclose(np.einsum("ai,ai->a", cartan.roots, cartan.roots), 1.0,
                       atol=1e-9)

    # roots are exactly the differences of distinct weights
    diffs = [wa - wb for i, wa in enumerate(cartan.weights)
             for k, wb in enumerate(cartan.weights) if i != k]
    assert len(rounded_set(diffs)) == len(diffs) == len(cartan.roots)
    assert rounded_set(cartan.roots) == rounded_set(diffs)


def test_adjoint_weights_are_roots_and_zeros():
    # the su(3) adjoint: d = 8 weights, the 6 roots and a doubly degenerate
    # zero weight, whose common eigenspace the weight basis must still split
    rep, cartan = decomposed("suN:n=3,dynkin=1,1")
    assert cartan.rank == 2
    zero = np.all(np.abs(cartan.weights) < 1e-9, axis=1)
    assert int(np.sum(zero)) == cartan.rank
    assert rounded_set(cartan.weights[~zero]) == rounded_set(cartan.roots)
    assert len(cartan.weights[~zero]) == len(cartan.roots)
    assert np.allclose(cartan.highest_weight, cartan.positive_roots[0], atol=1e-9)
    w = cartan.weight_basis
    assert np.max(np.abs(w.conj().T @ w - np.eye(rep.dim_hilbert))) < 1e-12
    for i, h in enumerate(cartan.cartan_generators):
        assert np.max(np.abs(h @ w - w * cartan.weights[:, i])) < 1e-10


def test_joint_eigenbasis_rejects_non_commuting_pair():
    sx = np.array([[0, 1], [1, 0]], dtype=complex) / 2
    sz = np.array([[1, 0], [0, -1]], dtype=complex) / 2
    rng = np.random.default_rng(0)
    with pytest.raises(RuntimeError, match="common eigenbasis"):
        cartan_module._joint_eigenbasis(np.array([sx, sz]), rng, cartan_module.WEIGHT_TOL)


@pytest.mark.parametrize("spec", ["su2:two_j=3", "suN:n=3", "suN:n=4"], ids=case_id("builder"))
def test_ladder_relations(spec):
    rep, cartan = decomposed(spec)
    lam = rep.normalization
    for m, alpha in enumerate(cartan.positive_roots):
        e = cartan.raising_ops[m]
        # [H_i, E] = alpha_i E
        for i in range(cartan.rank):
            resid = comm(cartan.cartan_generators[i], e) - alpha[i] * e
            assert np.max(np.abs(resid)) < 1e-9
        # [E, E^dag] = alpha . H
        target = np.tensordot(alpha, cartan.cartan_generators, axes=(0, 0))
        assert np.max(np.abs(comm(e, e.conj().T) - target)) < 1e-8
        # normalization tr(E^dag E) = lam
        assert np.trace(e.conj().T @ e).real == pytest.approx(lam, rel=1e-9)


def test_highest_weight_state_annihilated():
    rep, cartan = decomposed("suN:n=3")
    hw = highest_weight_state(cartan)
    assert np.linalg.norm(hw) == pytest.approx(1.0, abs=1e-12)
    for e in cartan.raising_ops:
        assert np.linalg.norm(e @ hw) < 1e-9
    # eigenstate of each Cartan generator at the highest weight
    for i, h in enumerate(cartan.cartan_generators):
        assert np.linalg.norm(h @ hw - cartan.highest_weight[i] * hw) < 1e-9


def test_gcs_zero_params_is_highest_weight():
    rep, cartan = decomposed("su2:two_j=2")
    psi = generate_gcs(rep, cartan, np.zeros(3))
    hw = highest_weight_state(cartan)
    assert np.abs(np.vdot(hw, psi)) == pytest.approx(1.0, abs=1e-12)


def test_gcs_pi_rotation_flips_spin():
    rep, cartan = decomposed("su2:two_j=2")
    # exp(i pi J_x) maps |j, j> to |j, -j> up to phase
    psi = generate_gcs(rep, cartan, [np.pi, 0.0, 0.0])
    bottom = np.zeros(3, dtype=complex)
    bottom[-1] = 1.0
    assert np.abs(np.vdot(bottom, psi)) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_gcs_orbit_saturates_uncertainty_bound(seed):
    rep, cartan = decomposed("su2:two_j=3")
    delta_min, _ = uncertainty_bounds(rep, cartan)
    rng = np.random.default_rng(seed)
    psi = generate_gcs(rep, cartan, rng.uniform(-3, 3, rep.dim_algebra))
    assert total_uncertainty(psi, rep) == pytest.approx(delta_min, abs=1e-9)


def test_gcs_bad_params_shape():
    rep, cartan = decomposed("su2:two_j=2")
    with pytest.raises(ValueError, match="shape"):
        generate_gcs(rep, cartan, [0.1, 0.2])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gcs_rejects_non_finite_params(bad):
    rep, cartan = decomposed("su2:two_j=2")
    with pytest.raises(ValueError, match="params must be finite"):
        generate_gcs(rep, cartan, [0.1, bad, 0.0])


@pytest.mark.parametrize(
    "params",
    [np.array([0.1, 0.2j, 0.0]), [0.1, 0.2j, 0.0], np.array([0.1 + 0j, 0.2, 0.0], dtype=object)],
    ids=["array", "list", "object"],
)
def test_gcs_rejects_complex_params(params):
    rep, cartan = decomposed("su2:two_j=2")
    with pytest.raises(ValueError, match="^params must be real"):
        generate_gcs(rep, cartan, params)


@pytest.mark.parametrize("spec", ["su2:two_j=4", "suN:n=3"], ids=case_id("builder"))
def test_su2_triples(spec):
    rep, cartan = decomposed(spec)
    for a, e in zip(cartan.positive_roots, cartan.raising_ops):
        norm2 = float(a @ a)
        e3 = np.tensordot(a, cartan.cartan_generators, axes=(0, 0)) / norm2
        ep = e / np.sqrt(norm2)
        em = ep.conj().T
        assert np.max(np.abs(comm(e3, ep) - ep)) < 1e-9
        assert np.max(np.abs(comm(e3, em) + em)) < 1e-9
        assert np.max(np.abs(comm(ep, em) - e3)) < 1e-8
        assert np.max(np.abs(em - ep.conj().T)) < 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5, 6])
def test_weight_strings_su2(two_j):
    rep, cartan = decomposed(f"su2:two_j={two_j}")
    j = two_j / 2.0
    for s in range(two_j + 1):
        jj, mm = weight_string(cartan, s, 0)
        assert jj == pytest.approx(j, abs=1e-12)
        assert mm == pytest.approx(j - s, abs=1e-12)


def test_weight_strings_su3():
    rep, cartan = decomposed("suN:n=3")
    for m in range(cartan.n_positive):
        alpha = cartan.positive_roots[m]
        content = []
        for s in range(rep.dim_hilbert):
            jj, mm = weight_string(cartan, s, m)
            # position reproduces the pairing formula
            pairing = float(alpha @ cartan.weights[s]) / float(alpha @ alpha)
            assert mm == pytest.approx(pairing, abs=1e-8)
            content.append((jj, round(mm, 6)))
        # every root sees one doublet and one singlet
        assert sorted(content) == [(0.0, 0.0), (0.5, -0.5), (0.5, 0.5)]


def root_component_norm(psi, rep, cartan):
    v = np.real(np.einsum("a,kab,b->k", psi.conj(), rep.generators, psi))
    return float(np.linalg.norm((cartan.basis_rotation @ v)[cartan.rank:]))


def build_su2_reflected(rep):
    """An su(2) irrep in the orientation-reversing order (Jx, Jz, Jy)."""
    return algebra_from_generators(rep.generators[[0, 2, 1]])


def changed(spec, change):
    """decomposed(spec), or change applied to its irrep and decomposed."""
    if change is None:
        return decomposed(spec)
    rep = change(algebra(spec))
    return rep, cartan_decompose(rep)


# conjugated: the defining su(n) irrep in a basis where its Cartan is not diagonal;
# sweeps: whether alignment runs root-triple sweeps, or (the defining su(n),
# n > 2) returns the lowest-weight vector
@pytest.mark.parametrize("spec,change,sweeps", [
    pytest.param("su2:two_j=1", None, True, id="build_su2_irrep-1-auto"),  # K = 3 = d^2 - 1
    pytest.param("su2:two_j=3", None, True, id="build_su2_irrep-3-auto"),  # K = 3
    pytest.param("su2:two_j=3", build_su2_reflected, True, id="build_su2_reflected-3-auto"),
    pytest.param("suN:n=3", None, False, id="build_sun_fundamental-3-auto"),  # K = d^2 - 1
    pytest.param("suN:n=3,dynkin=1,1", None, True, id="build_sun_adjoint-3-auto"),  # d = K = 8
    pytest.param("suN:n=3", conjugated, False, id="build_sun_conjugated-3-auto"),
    pytest.param("suN:n=4", conjugated, False, id="build_sun_conjugated-4-auto"),
])
def test_alignment_paths(spec, change, sweeps, monkeypatch):
    rep, cartan = changed(spec, change)
    taken = []
    real = cartan_module._root_triple_sweep

    def spy(*args):
        taken.append(1)
        return real(*args)

    monkeypatch.setattr(cartan_module, "_root_triple_sweep", spy)
    for seed in range(6):
        psi = rng_haar_state(rep.dim_hilbert, 1000 + seed)
        out = align_expectation_to_cartan(psi, rep, cartan)
        assert root_component_norm(out, rep, cartan) < 1e-8
        if not sweeps:
            assert np.array_equal(out, cartan.weight_basis[:, -1])
        # group rotations preserve the uncertainty and the expectation norm
        assert total_uncertainty(out, rep) == pytest.approx(
            total_uncertainty(psi, rep), abs=1e-9
        )
        v_in = np.real(np.einsum("a,kab,b->k", psi.conj(), rep.generators, psi))
        v_out = np.real(np.einsum("a,kab,b->k", out.conj(), rep.generators, out))
        assert np.linalg.norm(v_out) == pytest.approx(
            np.linalg.norm(v_in), abs=1e-9
        )
    assert bool(taken) == sweeps


def eigenbasis_aligned(psi, rep, cartan):
    """The defining su(n) rotation W V^dagger psi, V the eigenvectors of
    A = sum_k <X_k> X_k = lam (|psi><psi| - 1/n): V^dagger takes A to a
    diagonal matrix and the weight basis W takes that into the Cartan span,
    and since psi is A's top eigenvector, V^dagger psi is the last unit
    vector up to a phase."""
    v = np.real(np.einsum("a,kab,b->k", psi.conj(), rep.generators, psi))
    _, vecs = np.linalg.eigh(np.tensordot(v, rep.generators, axes=1))
    return cartan.weight_basis @ (vecs.conj().T @ psi)


@pytest.mark.parametrize("spec,change", [
    pytest.param("suN:n=3", None, id="su3"),
    pytest.param("suN:n=4", None, id="su4"),
    pytest.param("suN:n=6", None, id="su6"),
    pytest.param("suN:n=4", conjugated, id="su4-conjugated"),
])
def test_defining_alignment_is_the_eigenbasis_rotation_up_to_phase(spec, change):
    rep, cartan = changed(spec, change)
    for seed in range(64):
        psi = rng_haar_state(rep.dim_hilbert, 5000 + seed)
        out = align_expectation_to_cartan(psi, rep, cartan)
        assert abs(abs(np.vdot(out, eigenbasis_aligned(psi, rep, cartan))) - 1.0) <= 1e-12


def axis_angle_aligned(psi, rep, cartan):
    """The su(2) reference: turn <X> onto the Cartan axis c by the angle
    atan2(|v x c|, v . c) about v x c.  X / s obey the standard su(2)
    relations for s = f[0, 1, 2] of either sign (either basis orientation),
    so exp(-1j theta n.X / s) is the right-handed rotation about n."""
    c = cartan.basis_rotation[0]
    v = np.real(np.einsum("a,kab,b->k", psi.conj(), rep.generators, psi))
    axis = np.cross(v, c)
    theta = np.arctan2(np.linalg.norm(axis), v @ c)
    gen = np.tensordot(axis / np.linalg.norm(axis), rep.generators, axes=1)
    return scipy.linalg.expm(-1j * theta / rep.structure_constants[0, 1, 2] * gen) @ psi


@pytest.mark.parametrize(
    "spec,change",
    [pytest.param(f"su2:two_j={two_j}", None, id=f"build_su2_irrep-{two_j}") for two_j in range(1, 9)]
    + [pytest.param("su2:two_j=3", build_su2_reflected, id="build_su2_reflected-3")],
)
def test_su2_alignment_is_the_axis_angle_rotation(spec, change):
    # on K = 3 one sweep is one step, the rotation of <X> onto +H
    rep, cartan = changed(spec, change)
    for seed in range(10):
        psi = rng_haar_state(rep.dim_hilbert, 3000 + seed)
        out = align_expectation_to_cartan(psi, rep, cartan)
        assert np.max(np.abs(out - axis_angle_aligned(psi, rep, cartan))) <= 1e-14


@pytest.mark.parametrize("two_j", [1, 2, 4, 8])
@pytest.mark.parametrize("eps", [1e-6, 1e-8, 3e-9, 1e-9, 3e-10])
def test_su2_alignment_close_to_the_cartan_gauge(two_j, eps):
    # a root component just above ALIGNMENT_TOL: the angle comes from
    # atan2, not from the arccosine of a cosine within 1e-16 of 1
    rep, cartan = decomposed(f"su2:two_j={two_j}")
    out = align_expectation_to_cartan(generate_gcs(rep, cartan, [eps, 0.0, 0.0]), rep, cartan)
    assert root_component_norm(out, rep, cartan) <= cartan_module.ALIGNMENT_TOL
    assert abs(np.vdot(highest_weight_state(cartan), out)) == pytest.approx(1.0, abs=1e-14)


def haar(spec, seed):
    rep = algebra(spec)
    return rep, rng_haar_state(rep.dim_hilbert, seed)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: haar("suN:n=3,dynkin=2,0", 170), id="sym2-su3-haar-170"),
    pytest.param(lambda: haar("suN:n=4,dynkin=2,0,0", 19), id="sym2-su4-haar-19"),
    pytest.param(lambda: haar("suN:n=4,dynkin=2,0,0", 111), id="sym2-su4-haar-111"),
    pytest.param(lambda: haar("suN:n=4,dynkin=2,0,0", 165), id="sym2-su4-haar-165"),
    pytest.param(lambda: sym3_su3_trace_norm_minimizer(0), id="sym3-su3-t-minimizer-0"),
    pytest.param(lambda: sym3_su3_trace_norm_minimizer(1), id="sym3-su3-t-minimizer-1"),
])
def test_alignment_near_a_weyl_wall(make):
    # near a wall the Jacobian of the root components is near singular,
    # while each root-triple step still zeroes its root component exactly
    rep, psi = make()
    cartan = cartan_decompose(rep)
    out = align_expectation_to_cartan(psi, rep, cartan)
    assert root_component_norm(out, rep, cartan) <= 1e-10
    for invariant in (total_uncertainty, covariance_trace_norm, generalized_purity,
                      lambda x, r: localization_drift(x, r, 0.1)):
        before = invariant(psi, rep)
        assert abs(invariant(out, rep) - before) <= 1e-12 * max(1.0, abs(before))


def test_alignment_raises_with_the_residual_when_the_sweeps_run_out(monkeypatch):
    rep, cartan = decomposed("suN:n=3,dynkin=1,1")
    monkeypatch.setattr(cartan_module, "ALIGNMENT_SWEEPS", 1)
    with pytest.raises(RuntimeError, match=r"^Cartan alignment failed: residual root component \d"):
        align_expectation_to_cartan(rng_haar_state(rep.dim_hilbert, 1000), rep, cartan)


@pytest.mark.parametrize("spec,change", [
    pytest.param("su2:two_j=2", None, id="su2-2"),
    pytest.param("su2:two_j=8", None, id="su2-8"),
    pytest.param("su2:two_j=3", build_su2_reflected, id="su2-3-reflected"),
    pytest.param("suN:n=3", None, id="su3"),
    pytest.param("suN:n=6", None, id="su6"),
    pytest.param("suN:n=3,dynkin=1,1", None, id="su3-adjoint"),
])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_gcs_matches_expm_and_alignment_keeps_invariants(spec, change, seed):
    rep, cartan = changed(spec, change)
    rng = np.random.default_rng(seed)
    params = rng.uniform(-3, 3, rep.dim_algebra)
    ref = scipy.linalg.expm(1j * np.tensordot(params, rep.generators, axes=1)) @ highest_weight_state(cartan)
    assert np.max(np.abs(generate_gcs(rep, cartan, params) - ref)) <= 1e-13
    psi = rng_haar_state(rep.dim_hilbert, seed)
    out = align_expectation_to_cartan(psi, rep, cartan)
    for invariant in (total_uncertainty, covariance_trace_norm, generalized_purity,
                      lambda x, r: localization_drift(x, r, 0.1)):
        before = invariant(psi, rep)
        assert abs(invariant(out, rep) - before) <= 1e-13 * max(1.0, abs(before))


def test_alignment_noop_when_already_aligned():
    rep, cartan = decomposed("su2:two_j=2")
    # <X> along the Cartan axis, and antiparallel to it
    for psi in (highest_weight_state(cartan), cartan.weight_basis[:, -1]):
        out = align_expectation_to_cartan(psi, rep, cartan)
        assert np.allclose(out, psi, atol=1e-12)
        # a norm off 1 within the 1e-8 tolerance comes back as a unit state
        out = align_expectation_to_cartan((1 + 5e-9) * psi, rep, cartan)
        assert np.allclose(out, psi, atol=1e-12)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-15


@pytest.mark.parametrize("spec", ["su2:two_j=2", "suN:n=3"], ids=case_id("builder"))
def test_alignment_rejects_unnormalized_and_nonfinite_states(spec):
    rep, cartan = decomposed(spec)
    psi = rng_haar_state(rep.dim_hilbert, 7)
    with pytest.raises(ValueError, match="not normalized"):
        align_expectation_to_cartan(2.0 * psi, rep, cartan)
    with pytest.raises(ValueError, match="not finite"):
        align_expectation_to_cartan(np.full(rep.dim_hilbert, np.nan + 0j), rep, cartan)


def rephased_eigh(seed):
    """np.linalg.eigh returning each eigenvector times a random unit phase,
    which eigh is free to do; its calls attribute counts the calls."""
    real_eigh = np.linalg.eigh
    rng = np.random.default_rng(seed)

    def eigh(a):
        eigh.calls += 1
        vals, vecs = real_eigh(a)
        return vals, vecs * np.exp(2j * np.pi * rng.uniform(size=vecs.shape[1]))

    eigh.calls = 0
    return eigh


# irreps whose alignment sweeps: each root rotation takes one eigh
@pytest.mark.parametrize("spec", ["su2:two_j=4", "suN:n=3,dynkin=1,1", "suN:n=3,dynkin=2,0"], ids=case_id("builder"))
def test_sweep_alignment_ignores_eigenvector_phases(spec, monkeypatch):
    rep, cartan = decomposed(spec)
    states = [rng_haar_state(rep.dim_hilbert, 2000 + seed) for seed in range(20)]
    plain = [align_expectation_to_cartan(psi, rep, cartan) for psi in states]
    eigh = rephased_eigh(rep.dim_hilbert)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    for psi, ref in zip(states, plain):
        out = align_expectation_to_cartan(psi, rep, cartan)
        assert np.max(np.abs(out - ref)) < 1e-12
    assert eigh.calls >= 1


@pytest.mark.parametrize("spec,seed", [
    pytest.param("su2:two_j=4", 4, id="build_su2_irrep-4"),
    pytest.param("suN:n=3", 3, id="build_sun_fundamental-3"),
    pytest.param("suN:n=6", 6, id="build_sun_fundamental-6"),
    pytest.param("suN:n=3,dynkin=1,1", 3, id="build_sun_adjoint-3"),
])
def test_decomposition_ignores_eigenvector_phases(spec, seed, monkeypatch):
    rep, ref = decomposed(spec)
    eigh = rephased_eigh(seed)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    got = cartan_decompose(rep)
    for field in ("weight_basis", "raising_ops", "basis_rotation"):
        assert np.max(np.abs(getattr(got, field) - getattr(ref, field))) < 1e-12, field
    assert eigh.calls >= 1


@pytest.mark.parametrize("spec", ["su2:two_j=1", "su2:two_j=2", "suN:n=3"], ids=case_id("builder"))
def test_equal_irrep_sum_rejected_by_decomposition(spec):
    # two copies of one irrep keep sum X^2 = c 1, so construction accepts
    # the sum; its highest weight appears twice
    gens = algebra(spec).generators
    rep = algebra_from_generators([scipy.linalg.block_diag(g, g) for g in gens])
    with pytest.raises(ValueError, match="highest weight not unique"):
        cartan_decompose(rep)


@pytest.mark.parametrize(
    "spec", ["suN:n=3", "suN:n=4", "su2:two_j=3", "suN:n=3,dynkin=1,1"], ids=case_id("builder")
)
def test_decompose_in_conjugated_basis(spec):
    # no generator is diagonal after a generic rotation, which forces the
    # random-probe path; the invariant data must not change
    base, ref = decomposed(spec)
    rep = conjugated(base)
    assert not cartan_module._diagonal_generator_indices(rep.generators)
    cartan = cartan_decompose(rep)

    assert cartan.rank == ref.rank
    assert cartan.n_positive == ref.n_positive
    # root geometry is basis-independent up to an orthogonal change of the
    # Cartan frame: compare the Gram matrices of sorted pairings
    def pairing_multiset(c):
        g = c.positive_roots @ c.positive_roots.T
        return np.sort(np.round(g.ravel(), 9))

    assert np.allclose(pairing_multiset(cartan), pairing_multiset(ref), atol=1e-8)
    # scalar invariants agree
    ref_min, ref_c = uncertainty_bounds(base, ref)
    got_min, got_c = uncertainty_bounds(rep, cartan)
    assert got_min == pytest.approx(ref_min, abs=1e-8)
    assert got_c == pytest.approx(ref_c, abs=1e-8)


# ------------------------------------------------ stacked-check fault paths


def corrupt_root_vectors(monkeypatch, cols, how):
    """Replace root-vector column m by how(vecs, m) for m in cols whenever
    ``_canonical_phase`` returns the (K, n_pos) root vectors; the square
    weight and alignment bases pass unchanged."""
    real = cartan_module._canonical_phase

    def corrupted(vecs):
        out = real(vecs)
        if out.shape[0] == out.shape[1]:
            return out
        src = out.copy()
        for m in cols:
            out[:, m] = how(src, m)
        return out

    monkeypatch.setattr(cartan_module, "_canonical_phase", corrupted)


def mix_with_next(v, m):
    # a combination of two root vectors is a root vector of neither root
    return (v[:, m] + v[:, (m + 1) % v.shape[1]]) / np.sqrt(2.0)


@pytest.mark.parametrize("n,cols,named", [(3, (2,), 2), (3, (1, 2), 1), (6, (9, 4), 4)])
def test_broken_ladder_relation_names_lowest_root(n, cols, named, monkeypatch):
    rep = algebra(f"suN:n={n}")
    corrupt_root_vectors(monkeypatch, cols, mix_with_next)
    with pytest.raises(
        RuntimeError,
        match=rf"^Cartan extraction failed: ladder relation fails for root {named}: residual",
    ):
        cartan_decompose(rep)


@pytest.mark.parametrize("spec,cols,named", [
    ("su2:two_j=2", (0,), 0),
    ("suN:n=3", (1, 2), 1),
    ("suN:n=6", (14, 7), 7),
], ids=case_id("builder"))
def test_broken_ladder_normalization_names_lowest_root(spec, cols, named, monkeypatch):
    # twice a root vector keeps [H_i, E_a] = a_i E_a and quadruples [E, E^dag]
    rep = algebra(spec)
    corrupt_root_vectors(monkeypatch, cols, lambda v, m: 2.0 * v[:, m])
    with pytest.raises(
        RuntimeError,
        match=rf"^Cartan extraction failed: \[E, E\^dag\] != root \. H for root {named}: residual",
    ):
        cartan_decompose(rep)


def test_non_commuting_kernel_rows_are_rejected(monkeypatch):
    # lambda_1 and lambda_2 of su(3) span two dimensions but do not commute
    rep = algebra("suN:n=3")
    monkeypatch.setattr(cartan_module, "_cartan_candidates", lambda rep, rng: iter([np.eye(8)[[0, 1]]]))
    with pytest.raises(
        RuntimeError, match=r"^Cartan extraction failed: extracted Cartan set does not commute: "
    ):
        cartan_decompose(rep)


@pytest.mark.parametrize("spec", ["su2:two_j=2", "suN:n=3"], ids=case_id("builder"))
def test_mixed_weight_basis_has_no_annihilated_state(spec, monkeypatch):
    # a generic rotation of the weight basis leaves no column that every
    # raising operator kills
    rep, real = algebra(spec), cartan_module._joint_eigenbasis

    def mixed(mats, rng, tol):
        vecs, vals = real(mats, rng, tol)
        if tol == cartan_module.WEIGHT_TOL:
            q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal(vecs.shape))
            vecs = vecs @ q
        return vecs, vals

    monkeypatch.setattr(cartan_module, "_joint_eigenbasis", mixed)
    with pytest.raises(
        RuntimeError,
        match=r"^Cartan extraction failed: no weight state is annihilated by all raising operators$",
    ):
        cartan_decompose(rep)


def test_diagonal_generator_indices_of_defining_su4():
    assert cartan_module._diagonal_generator_indices(algebra("suN:n=4").generators) == [2, 7, 14]
