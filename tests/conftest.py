"""Shared pytest hooks, the registry of test irreps and the reference moments.

The hooks collect acceptance-criterion verdicts and print one pass/fail
line per criterion in the terminal summary of every run.

Every irrep the suite uses comes from ``algebra(spec)``, and its Cartan
data from ``decomposed(spec)``; both build once per session.  A spec is
the CLI's ``su2:two_j=N`` or ``suN:n=N``, read by ``gcsloc.cli.parse_algebra``,
or an su(n) irrep by its Dynkin labels: ``suN:n=N,dynkin=p,0,..,0`` is
Sym^p of the defining irrep and ``suN:n=N,dynkin=1,0,..,0,1`` the adjoint,
built by ``build_sun_symmetric`` and ``build_sun_adjoint``.  ``case_id``
names a spec in a parametrized case's id.  ``conjugated`` rewrites a
registry irrep in a rotated basis.

``reference_moments`` gives v_k = <X_k> and M_kl = <{X_k, X_l}> - 2 v_k v_l
of rows of states from explicit anticommutators, the one reference the
library's moments are checked against.  ``lindblad_superoperator`` is the
dense master-equation generator that the exact flow is checked against,
``rng_haar_state`` a Haar state from numpy's ``default_rng``,
``sym3_su3_trace_norm_minimizer`` a minimiser of T = sum M^2 on Sym^3
su(3), ``reduced_mean`` the exact mean of Delta - delta_min on irreps
whose orbit space is one dimensional, and ``kappa_loc`` the localisation
rate's upper bound at the highest weight state."""

import itertools
from functools import lru_cache, reduce

import numpy as np
import scipy.linalg
import scipy.optimize

from gcsloc.algebra import algebra_from_generators, build_sun_fundamental
from gcsloc.cartan import cartan_decompose, highest_weight_state
from gcsloc.cli import parse_algebra
from gcsloc.observables import (
    covariance_trace_norm,
    localization_drift,
    total_uncertainty,
    uncertainty_bounds,
)

_criterion_lines = []


def record_criterion(number, passed, description):
    """Register one acceptance criterion outcome for the summary block."""
    status = "PASS" if passed else "FAIL"
    line = f"[ACCEPTANCE {number}] {status} - {description}"
    _criterion_lines.append((number, line))
    return line


def pytest_terminal_summary(terminalreporter):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_criterion_lines):
        terminalreporter.write_line(line)


def rng_haar_state(dim, seed):
    """A Haar-random unit vector from ``np.random.default_rng(seed)``; the
    library's ``haar_state`` draws from its own Philox streams instead."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def build_sun_adjoint(n):
    """The adjoint irrep of su(n): d = K = n^2 - 1."""
    return algebra_from_generators(-1j * build_sun_fundamental(n).structure_constants)


def build_sun_symmetric(n, p):
    """Sym^p of the defining su(n): the p-fold tensor action of each
    generator on the symmetric subspace of (C^n)^(x p)."""
    cols = []
    for combo in itertools.combinations_with_replacement(range(n), p):
        col = np.zeros(n**p)
        for perm in set(itertools.permutations(combo)):
            col[np.ravel_multi_index(perm, (n,) * p)] = 1.0
        cols.append(col / np.linalg.norm(col))
    iso = np.array(cols).T
    eye = np.eye(n)
    gens = [
        iso.T @ sum(reduce(np.kron, [x if t == s else eye for t in range(p)]) for s in range(p)) @ iso
        for x in build_sun_fundamental(n).generators
    ]
    return algebra_from_generators(gens)


def _dynkin(spec):
    """(n, labels) of a ``suN:n=N,dynkin=...`` spec, or (None, None) for a
    spec the CLI reads."""
    head, _, labels = spec.partition(",dynkin=")
    if not labels:
        return None, None
    return int(head.removeprefix("suN:n=")), [int(a) for a in labels.split(",")]


@lru_cache(maxsize=None)
def algebra(spec):
    """The irrep named by spec (see the module docstring), built once."""
    n, labels = _dynkin(spec)
    if labels is None:
        return parse_algebra(spec)
    if labels == [1] + [0] * (n - 3) + [1]:
        return build_sun_adjoint(n)
    if len(labels) == n - 1 and labels[1:] == [0] * (n - 2):
        return build_sun_symmetric(n, labels[0])
    raise ValueError(f"no test builder for {spec!r}")


@lru_cache(maxsize=None)
def decomposed(spec):
    """(rep, cartan_decompose(rep)) of ``algebra(spec)``, decomposed once."""
    rep = algebra(spec)
    return rep, cartan_decompose(rep)


_CASE_IDS = {
    # su(2) spin two_j/2, defining su(n), adjoint su(n), Sym^p su(n)
    "short": ("su2-{n}", "su{n}", "su{n}-adjoint", "sym{p}-su{n}"),
    "builder": ("build_su2_irrep-{n}", "build_sun_fundamental-{n}", "build_sun_adjoint-{n}",
                "build_sun_symmetric-{n}-{p}"),
    "step": ("su2:{n}", "suN:{n}", "adj:{n}", "sym{p}:{n}"),
}


def case_id(style):
    """An ``ids`` function naming each registry spec in one of the suite's
    id styles: "short" (su2-3, su3, su3-adjoint, sym2-su3), "builder"
    (build_su2_irrep-3, build_sun_fundamental-3, build_sun_adjoint-3) or
    "step" (su2:3, suN:3, adj:3, sym2:3); any other value keeps pytest's
    id."""

    def name(spec):
        if not isinstance(spec, str) or ":" not in spec:
            return None
        n, labels = _dynkin(spec)
        if labels is None:
            form = 0 if spec.startswith("su2:") else 1
            n = int(spec.rpartition("=")[2])
        else:
            form = 2 if labels[-1] else 3
        return _CASE_IDS[style][form].format(n=n, p=labels and labels[0])

    return name


def reference_moments(states, rep):
    """(v, M) of the (n, d) rows of states: v_k = <X_k> and M_kl =
    <X_k X_l + X_l X_k> - 2 v_k v_l, from the complex generators and their
    explicit anticommutators, one einsum each."""
    gens = rep.generators
    anti = np.einsum("kab,lbc->klac", gens, gens)
    anti = anti + anti.transpose(1, 0, 2, 3)
    v = np.einsum("na,kab,nb->nk", states.conj(), gens, states).real
    second = np.einsum("na,klab,nb->nkl", states.conj(), anti, states).real
    return v, second - 2.0 * v[:, :, None] * v[:, None, :]


def conjugated(base, seed=99):
    """base with every generator conjugated by one generic group element,
    so that no generator is diagonal."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-1, 1, base.dim_algebra)
    u = scipy.linalg.expm(1j * np.tensordot(theta, base.generators, axes=(0, 0)))
    gens = np.einsum("ab,kbc,cd->kad", u.conj().T, base.generators, u)
    gens = 0.5 * (gens + np.conj(np.swapaxes(gens, -1, -2)))
    return algebra_from_generators(gens)


def lindblad_superoperator(h, rep, gamma):
    """Dense (d^2, d^2) generator of the master equation flow, the oracle
    for ``lindblad_expm_evolve``.

    L rho = 2 gamma sum_k X_k rho X_k - (A rho + rho A^dagger), A = gamma c
    + 1j H with H = sum_k h_k X_k (the Casimir C = sum_k X_k^2 is c 1 on an
    irrep), in the row-major vectorization vec(rho)[i*d + j] = rho[i, j],
    under which A rho B maps to (A kron B^T) vec(rho).
    """
    d = rep.dim_hilbert
    gens = rep.generators
    a = gamma * rep.casimir_eigenvalue * np.eye(d)
    if h is not None:
        a = a + 1j * np.tensordot(h, gens, axes=(0, 0))
    sup = np.tensordot(gens, gens, axes=(0, 0)).transpose(0, 3, 1, 2).reshape(d * d, d * d)
    sup *= 2.0 * gamma
    eye = np.eye(d)
    sup -= np.kron(a, eye) + np.kron(eye, a.conj())
    return sup


@lru_cache(maxsize=None)
def sym3_su3_trace_norm_minimizer(seed):
    """(rep, psi): Sym^3 of su(3), d = 10, and the unit state at which BFGS
    from the standard normals of ``default_rng(seed)`` minimises
    T = sum M^2.  There T lies below its orbit value, and <X> is
    non-regular to about 1e-6: ad_<X> has four singular values below 2e-6
    against rank 2."""
    rep = algebra("suN:n=3,dynkin=3,0")
    d = rep.dim_hilbert

    def state(x):
        psi = x[:d] + 1j * x[d:]
        return psi / np.linalg.norm(psi)

    x0 = np.random.default_rng(seed).standard_normal(2 * d)
    res = scipy.optimize.minimize(lambda x: covariance_trace_norm(state(x), rep), x0, method="BFGS")
    psi = state(res.x)
    psi.flags.writeable = False
    return rep, psi


def reduced_mean(a, b, x_max, gamma, x0, times, n=48):
    """E[x_t | x_0 = x0] at each t of times for the Ito diffusion on
    [0, x_max]

        dx = -2 gamma (a x + 4 x^2) dt + sqrt(8 gamma b x^2 (1 - x / x_max)) dW,

    the law of x = Delta - delta_min on an irrep whose orbit space is one
    dimensional (spin 1: a = b = 4, x_max = 1).  u(t, x) = E[x_t | x_0 = x]
    solves the backward equation u_t = mu u_x + sigma^2 u_xx / 2 with
    u(0, x) = x; sigma vanishes at both ends, so no boundary condition is
    needed.  The generator is collocated on the n + 1 Chebyshev-Lobatto
    nodes, u(t) at the nodes is ``scipy.linalg.expm`` of it times t applied
    to the nodes, and its barycentric interpolant is read at x0.  On spin 1
    from x0 = 0.444, n = 48 agrees with n = 96 to 8e-9 for t <= 0.3."""
    k = np.arange(n + 1)
    x = 0.5 * x_max * (1.0 + np.cos(np.pi * k / n))
    w = (-1.0) ** k * np.where((k == 0) | (k == n), 0.5, 1.0)
    gap = np.subtract.outer(x, x) + np.eye(n + 1)
    dmat = np.outer(1.0 / w, w) / gap
    np.fill_diagonal(dmat, 0.0)
    np.fill_diagonal(dmat, -dmat.sum(axis=1))
    drift = -2.0 * gamma * (a * x + 4.0 * x * x)
    var = 8.0 * gamma * b * x * x * (1.0 - x / x_max)
    gen = drift[:, None] * dmat + 0.5 * var[:, None] * (dmat @ dmat)
    u = np.array([scipy.linalg.expm(t * gen) @ x for t in times])
    if np.any(x == x0):
        return u[:, np.argmax(x == x0)]
    c = w / (x0 - x)
    return u @ c / c.sum()


def kappa_loc(rep):
    """(smallest, largest, dim_C N): the generalised eigenvalues of the
    Hessians of T - c_adj P = -D/(2 gamma) and of Delta - delta_min at |hw>.

    N is the orthogonal complement of the orbit's tangent space
    span_C{|hw>, X_k |hw>}, from an SVD of those K + 1 columns; the Hessians
    are central differences, step h = 1e-4, in psi(x) = normalise(|hw> +
    sum_i x_i e_i), over the 2 dim_C N real directions e_i: b and i b for
    each basis vector b of N.  The smallest is
    kappa_loc, the upper bound on the rate kappa = -D / (2 gamma (Delta -
    delta_min)) near the orbit.
    """
    cartan = cartan_decompose(rep)
    hw = highest_weight_state(cartan)
    delta_min, _ = uncertainty_bounds(rep, cartan)
    u, s, _ = np.linalg.svd(np.column_stack([hw, *(rep.generators @ hw)]))
    normal = u[:, int(np.sum(s > 1e-8 * s[0])) :]
    dirs = np.concatenate([normal, 1j * normal], axis=1).T

    def at(x):
        psi = hw + x @ dirs
        return psi / np.linalg.norm(psi)

    def hessian(f, h=1e-4):
        m = len(dirs)
        steps = h * np.eye(m)
        hess = np.empty((m, m))
        for i in range(m):
            for j in range(i, m):
                a, b = steps[i], steps[j]
                hess[i, j] = hess[j, i] = (
                    f(at(a + b)) - f(at(a - b)) - f(at(b - a)) + f(at(-a - b))
                ) / (4 * h * h)
        return hess

    hf = hessian(lambda psi: -localization_drift(psi, rep, 0.5))
    hg = hessian(lambda psi: total_uncertainty(psi, rep) - delta_min)
    kappa = scipy.linalg.eigh(hf, hg, eigvals_only=True)
    return kappa[0], kappa[-1], normal.shape[1]
