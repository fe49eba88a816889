import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from conftest import algebra, case_id, conjugated
from gcsloc import algebra as algebra_module, cli
from gcsloc.algebra import (
    algebra_from_generators,
    build_su2_irrep,
    build_sun_fundamental,
    unitary_exp,
)
from gcsloc.dynamics import haar_states

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def gram(rep):
    return np.einsum("iab,jba->ij", rep.generators, rep.generators).real


def levi_civita():
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    return eps


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5, 6])
def test_su2_invariants(two_j):
    rep = build_su2_irrep(two_j)
    j = two_j / 2.0
    assert rep.dim_algebra == 3
    assert rep.dim_hilbert == two_j + 1

    # trace norm: tr(J_z^2) = sum of m^2 over the ladder
    m = np.arange(-two_j, two_j + 1, 2) / 2.0
    lam = float(np.sum(m * m))
    assert rep.normalization == pytest.approx(lam, rel=1e-13)
    assert rep.normalization == pytest.approx(j * (j + 1) * (2 * j + 1) / 3.0, rel=1e-13)

    assert rep.casimir_eigenvalue == pytest.approx(j * (j + 1), rel=1e-13)
    assert rep.adjoint_casimir == pytest.approx(2.0, rel=1e-12)
    assert np.max(np.abs(rep.structure_constants - levi_civita())) < 1e-12
    assert np.max(np.abs(gram(rep) - lam * np.eye(3))) < 1e-10 * lam


def test_su2_matrices_spin_half():
    rep = build_su2_irrep(1)
    for k, axis in enumerate("xyz"):
        assert np.allclose(rep.generators[k], PAULI[axis] / 2.0, atol=1e-15)


def test_su2_jz_ladder_order():
    rep = build_su2_irrep(4)
    assert np.allclose(np.diag(rep.generators[2]), [2, 1, 0, -1, -2])


def test_sun_fundamental_pauli_agreement():
    rep = build_sun_fundamental(2)
    for k, axis in enumerate("xyz"):
        assert np.allclose(rep.generators[k], PAULI[axis] / 2.0, atol=1e-15)
    assert rep.casimir_eigenvalue == pytest.approx(0.75, rel=1e-13)


def test_sun3_gellmann_values():
    rep = build_sun_fundamental(3)
    assert rep.dim_algebra == 8
    assert rep.normalization == pytest.approx(0.5, rel=1e-13)
    assert rep.casimir_eigenvalue == pytest.approx(4.0 / 3.0, rel=1e-13)
    assert rep.adjoint_casimir == pytest.approx(3.0, rel=1e-12)

    lam1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    lam8 = np.diag([1, 1, -2]).astype(complex) / np.sqrt(3.0)
    assert np.allclose(rep.generators[0], lam1 / 2.0, atol=1e-15)
    assert np.allclose(rep.generators[7], lam8 / 2.0, atol=1e-15)

    # standard antisymmetric structure constants of the Gell-Mann basis
    f = rep.structure_constants
    expected = {
        (0, 1, 2): 1.0,
        (0, 3, 6): 0.5,
        (0, 4, 5): -0.5,
        (1, 3, 5): 0.5,
        (1, 4, 6): 0.5,
        (2, 3, 4): 0.5,
        (2, 5, 6): -0.5,
        (3, 4, 7): np.sqrt(3.0) / 2.0,
        (5, 6, 7): np.sqrt(3.0) / 2.0,
    }
    for (i, j, k), val in expected.items():
        assert f[i, j, k] == pytest.approx(val, abs=1e-12), (i, j, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sun_invariants(n):
    rep = build_sun_fundamental(n)
    assert rep.dim_algebra == n * n - 1
    assert rep.normalization == pytest.approx(0.5, rel=1e-12)
    assert rep.casimir_eigenvalue == pytest.approx((n * n - 1) / (2.0 * n), rel=1e-12)
    assert rep.adjoint_casimir == pytest.approx(float(n), rel=1e-11)


def test_structure_constants_total_antisymmetry():
    f = build_sun_fundamental(3).structure_constants
    assert np.max(np.abs(f + f.transpose(1, 0, 2))) < 1e-12
    assert np.max(np.abs(f + f.transpose(0, 2, 1))) < 1e-12
    assert np.max(np.abs(f - f.transpose(1, 2, 0))) < 1e-12


@pytest.mark.parametrize("rep", [build_su2_irrep(3), build_sun_fundamental(4)],
                         ids=["su2-3", "su4"])
def test_structure_constants_match_trace_loop(rep):
    gens = rep.generators
    K = rep.dim_algebra
    ref = np.empty((K, K, K))
    for i in range(K):
        for j in range(K):
            comm = gens[i] @ gens[j] - gens[j] @ gens[i]
            for k in range(K):
                ref[i, j, k] = np.real(-1j * np.trace(comm @ gens[k])) / rep.normalization
    assert np.max(np.abs(rep.structure_constants - ref)) < 1e-14


def complex_constants(gens):
    """(comm, f, c, c_adj, closure residual) of a generator set the complex
    way: the closure sum as 1j * tensordot(f, gens), promoting f to
    complex, and f, c and c_adj by the formulas of the build."""
    K, d = gens.shape[:2]
    prod = np.matmul(gens[:, None], gens[None, :])
    lam = float(np.mean(np.einsum("iiaa->i", prod).real))
    comm = prod - prod.transpose(1, 0, 2, 3)
    f = (comm.reshape(K * K, d * d) @ gens.transpose(0, 2, 1).reshape(K, d * d).T).reshape(K, K, K)
    f *= -1j / lam
    f = np.ascontiguousarray(f.real)
    closure = np.max(np.abs(comm - 1j * np.tensordot(f, gens, axes=(2, 0))))
    c = float(np.real(np.trace(np.einsum("jjab->ab", prod))) / d)
    flat = f.reshape(K, K * K)
    c_adj = float(np.trace(flat @ flat.T) / K)
    return comm, f, c, c_adj, closure


@pytest.mark.parametrize(
    "spec",
    [f"su2:two_j={two_j}" for two_j in range(1, 9)] + [f"suN:n={n}" for n in (2, 3, 4, 6)] + ["suN:n=3,dynkin=1,1"],
    ids=case_id("short"),
)
def test_constants_and_closure_residual_match_the_complex_reference(spec):
    rep = algebra(spec)
    comm, f, c, c_adj, closure = complex_constants(rep.generators)
    assert np.array_equal(rep.structure_constants, f)
    assert rep.casimir_eigenvalue == c and rep.adjoint_casimir == c_adj
    assert algebra_module._closure_residual(rep.structure_constants, rep.generators, comm) == closure


@pytest.mark.parametrize("d", [2, 5, 9])
def test_unitary_exp_matches_scipy(d):
    rng = np.random.default_rng(d)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (z + z.conj().T)
    times = np.array([0.0, -0.3, 1.7])
    stack = unitary_exp(h, times)
    assert stack.shape == (3, d, d)
    for t, u in zip(times, stack):
        assert np.max(np.abs(u - scipy.linalg.expm(1j * t * h))) < 1e-13
        assert np.max(np.abs(u @ u.conj().T - np.eye(d))) < 1e-13
        assert np.max(np.abs(unitary_exp(h, t) - u)) < 1e-14
    assert np.max(np.abs(unitary_exp(h) - scipy.linalg.expm(1j * h))) < 1e-13


def test_casimir_matrix_is_scalar():
    for rep in (build_su2_irrep(3), build_sun_fundamental(4)):
        target = rep.casimir_eigenvalue * np.eye(rep.dim_hilbert)
        cas = np.einsum("kab,kbc->ac", rep.generators, rep.generators)
        assert np.max(np.abs(cas - target)) < 1e-12


@pytest.mark.parametrize(
    "rep",
    [build_su2_irrep(j) for j in range(1, 7)]
    + [build_sun_fundamental(n) for n in range(2, 6)]
    + [algebra_from_generators(1.7 * build_su2_irrep(2).generators), conjugated(build_sun_fundamental(3), 17)],
    ids=[f"su2-{j}" for j in range(1, 7)] + [f"su{n}" for n in range(2, 6)] + ["su2-2-scaled", "su3-conj"],
)
def test_moment_stack_is_real_form_of_generator_action(rep):
    # interleaved real rows times the real stack give every X_k psi: the
    # step's only product with the generators, and no Casimir block
    d, k = rep.dim_hilbert, rep.dim_algebra
    assert rep.moment_stack.shape == (2 * d, 2 * k * d) and rep.moment_stack.dtype == np.float64
    psi = haar_states(d, 33, seed=d * k)
    got = (psi.view(np.float64) @ rep.moment_stack).view(complex).reshape(33, k, d)
    ref = np.einsum("kab,nb->nka", rep.generators, psi)
    assert np.max(np.abs(got - ref)) <= 1e-13
    with pytest.raises(ValueError):
        rep.moment_stack[0, 0] = 1.0


def test_adjoint_casimir_contraction_route():
    rep = build_su2_irrep(4)
    f = rep.structure_constants
    contraction = np.einsum("ikl,jkl->ij", f, f)
    assert np.allclose(contraction, 2.0 * np.eye(3), atol=1e-12)


@pytest.mark.parametrize("rep", [build_su2_irrep(1), build_su2_irrep(4), build_sun_fundamental(3),
                                 build_sun_fundamental(6)], ids=["su2-1", "su2-4", "su3", "su6"])
def test_adjoint_casimir_matches_double_commutator_loop(rep, monkeypatch):
    # tr(sum_j [X_j, [X_j, X_1]] X_1) / lam, one generator at a time
    probe = rep.generators[0]
    double = sum(x @ (x @ probe - probe @ x) - (x @ probe - probe @ x) @ x for x in rep.generators)
    direct = np.trace(double @ probe).real / rep.normalization
    assert rep.adjoint_casimir == pytest.approx(direct, rel=1e-12)
    # constants off by 1% fail the double-commutator cross-check
    step = algebra_module._structure_constants
    monkeypatch.setattr(algebra_module, "_structure_constants", lambda *args: 1.01 * step(*args))
    with pytest.raises(ValueError, match="adjoint invariant mismatch"):
        algebra_from_generators(rep.generators)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NAMES = st.sampled_from(["Hamiltonian coefficients", "params", "increments"])


@settings(max_examples=50, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=8))
def test_coefficients_return_k_finite_reals_as_floats(x):
    for given in (x, np.array(x, dtype=object)):
        got = algebra_module._coefficients("params", given, len(x))
        assert got.dtype == np.float64 and np.array_equal(got, x)


@settings(max_examples=50, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=8), NAMES, st.data())
def test_coefficients_refuse_wrong_shape_non_finite_or_complex(x, name, data):
    k = len(x)
    i = data.draw(st.integers(0, k - 1))
    other_k = data.draw(st.integers(0, 9).filter(lambda n: n != k))
    non_finite = x[:i] + [data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))] + x[i + 1:]
    with_imag = x[:i] + [complex(x[i], data.draw(FINITE))] + x[i + 1:]
    for bad, kk, message in (
        (x, other_k, "must have shape"),
        ([x], k, "must have shape"),
        (non_finite, k, "must be finite"),
        (with_imag, k, "must be real"),
        (np.array(x, dtype=complex), k, "must be real"),
        (np.array(with_imag, dtype=object), k, "must be real"),
    ):
        with pytest.raises(ValueError, match=f"^{name} {message}"):
            algebra_module._coefficients(name, bad, kk)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0))
def test_rescaling_covariance(scale):
    base = build_su2_irrep(2)
    rep = algebra_from_generators(scale * base.generators)
    s2 = scale * scale
    assert rep.normalization == pytest.approx(s2 * base.normalization, rel=1e-12)
    assert rep.casimir_eigenvalue == pytest.approx(s2 * base.casimir_eigenvalue, rel=1e-12)
    assert rep.adjoint_casimir == pytest.approx(s2 * base.adjoint_casimir, rel=1e-11)
    assert np.allclose(
        rep.structure_constants, scale * base.structure_constants, atol=1e-11
    )


def test_unitary_conjugation_preserves_structure():
    # conjugation by a group element is an algebra automorphism: same f, same gram
    base = build_sun_fundamental(3)
    rep = conjugated(build_sun_fundamental(3), 17)
    assert np.max(np.abs(rep.structure_constants - base.structure_constants)) < 1e-9
    assert np.max(np.abs(gram(rep) - gram(base))) < 1e-10


def test_killing_normalized_unit_adjoint():
    base = build_sun_fundamental(3)
    rep = algebra_from_generators(1.0 / np.sqrt(base.adjoint_casimir) * base.generators)
    assert rep.adjoint_casimir == pytest.approx(1.0, rel=1e-10)


def test_not_closed_rejected():
    rep = build_su2_irrep(2)
    with pytest.raises(ValueError, match="closed"):
        algebra_from_generators(rep.generators[:2])


def test_non_finite_rejected():
    gens = build_su2_irrep(2).generators.copy()
    gens[0, 0, 1] = gens[0, 1, 0] = np.nan  # a Hermitian NaN entry pair
    with pytest.raises(ValueError, match="generators must be finite"):
        algebra_from_generators(gens)
    gens = build_su2_irrep(2).generators.copy()
    gens[2, 1, 1] = np.inf
    with pytest.raises(ValueError, match="generators must be finite"):
        algebra_from_generators(gens)


def test_reducible_rejected():
    # block sum of two different spins has uniform gram but a non-scalar
    # quadratic invariant
    a = build_su2_irrep(1).generators
    b = build_su2_irrep(2).generators
    gens = np.stack(
        [scipy.linalg.block_diag(a[k], b[k]) for k in range(3)]
    )
    with pytest.raises(ValueError, match="not irreducible"):
        algebra_from_generators(gens)


def test_non_hermitian_rejected():
    gens = build_su2_irrep(1).generators.copy()
    gens[0] = gens[0] + 1e-6j * np.eye(2)
    with pytest.raises(ValueError, match="Hermitian"):
        algebra_from_generators(gens)


def test_nonuniform_norm_rejected():
    gens = build_su2_irrep(2).generators.copy()
    gens[2] = 2.0 * gens[2]
    with pytest.raises(ValueError, match="uniform"):
        algebra_from_generators(gens)


@pytest.mark.parametrize("bad", [0, -1, 2.5])
def test_su2_bad_spin_rejected(bad):
    with pytest.raises(ValueError):
        build_su2_irrep(bad)


@pytest.mark.parametrize("bad", [0, 1, -3])
def test_sun_bad_dim_rejected(bad):
    with pytest.raises(ValueError):
        build_sun_fundamental(bad)


def test_generators_read_only():
    rep = build_su2_irrep(2)
    with pytest.raises(ValueError):
        rep.generators[0, 0, 0] = 1.0


def test_debug_dict_round_trip(tmp_path):
    # the bounds JSON writes each complex entry as a [real, imag] pair
    out = tmp_path / "bounds.json"
    assert cli.main(["bounds", "--algebra", "suN:n=2", "--out", str(out), "--dump-algebra"]) == 0
    dump = json.loads(out.read_text())["algebra_debug"]
    rep = build_sun_fundamental(2)
    pairs = np.array(dump["generators"])
    gens = pairs[..., 0] + 1j * pairs[..., 1]
    assert np.allclose(gens, rep.generators, atol=1e-15)
    assert dump["dim_algebra"] == 3
    assert np.allclose(
        np.array(dump["structure_constants"]), rep.structure_constants, atol=1e-15
    )
