"""Cartan decomposition, roots, weights, and generalized coherent states.

Given an AlgebraRep this module extracts a maximal commuting set of
generators (the Cartan subalgebra), the root system of the adjoint action,
ladder operators normalized so that [E_a, E_a^dag] = a . H, the weight
basis of the Hilbert space, and the highest-weight state.  Roots and
weights come from one routine, the common eigenbasis of commuting
Hermitian matrices (``_joint_eigenbasis``): of the adjoint actions of the
H_i for the roots, of the H_i for the weights.  The checks on the
extracted data (the Cartan set commutes, [H_i, E_a] = a_i E_a,
[E_a, E_a^dag] = a . H, and which weight state every E_a annihilates) are
each one product stacked over all roots, and a failed check names the
lowest failing root.  Generalized coherent states are group orbits of the
highest-weight state, exp(1j * sum_k params_k X_k) |hw>.  A state is
rotated into the Cartan gauge (<X> in the Cartan span) on one of two
paths: one eigenbasis rotation for the defining su(N), N > 2, and
otherwise cyclic Jacobi sweeps, each step an exact rotation in one
positive root's su(2) triple, at most ALIGNMENT_SWEEPS sweeps.  <X> and
the check of the root data against the states (``uncertainty_bounds``)
come from ``observables``.

Conventions
-----------
* Roots and weights live in R^r with components read against the
  orthonormal-coefficient Cartan basis H_1..H_r; the Euclidean dot product
  is the invariant pairing in this basis.
* A root is positive when its first nonzero component is positive
  (lexicographic convention).
* Ladder operators carry the same trace norm as the generators,
  tr(E_a^dag E_a) = lam, which pins [E_a, E_{-a}] = a . H exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraRep, _coefficients, _combination, _max_abs, _norm, _philox, unitary_exp
from .observables import expectation_vector, uncertainty_bounds

__all__ = [
    "CartanData",
    "align_expectation_to_cartan",
    "cartan_decompose",
    "cartan_debug_dict",
    "generate_gcs",
    "highest_weight_state",
    "weight_string",
]

ROOT_TOL = 1e-8
WEIGHT_TOL = 1e-10
KERNEL_TOL = 1e-8
DIAGONAL_TOL = 1e-12
ANNIHILATION_TOL = 1e-9
ALIGNMENT_TOL = 1e-10
ALIGNMENT_SWEEPS = 10  # twice the most sweeps seen on about 8000 test states

_PROBE_KEY = 0x6C6F63  # fixed Philox key: extraction is deterministic


@dataclass(frozen=True)
class CartanData:
    """Root-space data attached to one AlgebraRep.

    Attributes
    ----------
    rank : int
        Dimension r of the Cartan subalgebra.
    cartan_generators : (r, d, d) complex ndarray
        Commuting Hermitian generators H_i, trace norm lam each.
    basis_rotation : (K, K) real orthogonal ndarray
        Rows are coefficient vectors of the adapted basis on the original
        generators: rows 0..r-1 are the Cartan directions, rows
        r + 2m, r + 2m + 1 the Hermitian pair carried by positive root m.
    positive_roots : (n_pos, r) real ndarray
        Lexicographically positive roots.
    roots : (K - r, r) real ndarray
        All roots; positive roots first, then their negatives.
    raising_ops : (n_pos, d, d) complex ndarray
        E_a for each positive root; lowering operators are the adjoints.
    weight_basis : (d, d) complex unitary ndarray
        Columns are simultaneous eigenvectors of the H_i, sorted by weight
        (lexicographically descending).
    weights : (d, r) real ndarray
        Weight of each column of weight_basis.
    highest_weight : (r,) real ndarray
        Weight annihilated by every raising operator.
    highest_weight_index : int
        Column of weight_basis carrying the highest weight.
    positive_root_sum : (r,) real ndarray
        Sum of the positive roots.
    """

    rank: int
    cartan_generators: np.ndarray
    basis_rotation: np.ndarray
    positive_roots: np.ndarray
    roots: np.ndarray
    raising_ops: np.ndarray
    weight_basis: np.ndarray
    weights: np.ndarray
    highest_weight: np.ndarray
    highest_weight_index: int
    positive_root_sum: np.ndarray

    @property
    def n_positive(self) -> int:
        return self.positive_roots.shape[0]


def _probe_rng():
    return _philox([_PROBE_KEY, 0])


def _canonical_phase(vecs):
    """Rotate each unit column's phase so its first entry within a relative
    1e-8 of the largest modulus is real positive: rounding cannot pick
    between equal entries (a defining su(N) root vector has two)."""
    mag = np.abs(vecs)
    first = np.argmax(mag >= (1.0 - 1e-8) * mag.max(axis=0), axis=0)
    pivot = vecs[first, np.arange(vecs.shape[1])]
    return vecs * (pivot.conj() / np.abs(pivot))


def _lex_order(vals, idx):
    """idx by lexicographically descending rows of vals rounded to 9 decimals."""
    idx = np.asarray(idx, dtype=int)
    return idx[np.lexsort(-np.round(vals[idx], 9).T[::-1])]


def _lex_signs(vals):
    """Sign of the first entry above 1e-10 in modulus of each row; 0 for none."""
    big = np.abs(vals) > 1e-10
    first = vals[np.arange(len(vals)), np.argmax(big, axis=1)]
    return np.where(big.any(axis=1), np.sign(first), 0.0)


def _diagonal_generator_indices(gens):
    off = np.abs(gens * (1.0 - np.eye(gens.shape[1]))).max(axis=(1, 2))
    return np.flatnonzero(off < DIAGONAL_TOL).tolist()


def _kernel_basis(t):
    """Orthonormal real rows spanning the null space of the probe adjoint."""
    _, s, vt = np.linalg.svd(t)
    smax = max(s[0], 1.0) if s.size else 1.0
    return vt[s < KERNEL_TOL * smax]


def _joint_eigenbasis(mats, rng, tol):
    """Common eigenbasis of r commuting Hermitian (n, n) matrices.

    Returns (vecs, vals): the unitary vecs from the ``eigh`` of a generic
    positive combination sum_i (1 + u_i) M_i, u_i uniform from rng, and
    vals[s, i] = (vecs^dag M_i vecs)[s, s], the eigenvalue of column s
    under M_i.  A new combination is drawn, up to 8 times, while any
    rotated M_i keeps an off-diagonal entry above tol * max(1, |vals|).
    """
    n = mats.shape[1]
    for _ in range(8):
        combo = _combination(1.0 + rng.random(len(mats)), mats)
        _, vecs = np.linalg.eigh(combo)
        rotated = vecs.conj().T @ mats @ vecs
        diag = np.diagonal(rotated, axis1=1, axis2=2)
        vals = np.real(diag).T
        if _max_abs(rotated - diag[:, :, None] * np.eye(n)) <= tol * max(1.0, _max_abs(vals)):
            return vecs, vals
    raise RuntimeError("no common eigenbasis: the matrices are not simultaneously diagonal")


def _cartan_candidates(rep, rng):
    """Coefficient rows (r, K) of candidate Cartan subalgebras, in order:
    the diagonal generators, when they span the kernel of the adjoint
    action of a generic combination of themselves, then the kernels of
    four random probes."""
    K = rep.dim_algebra
    f = rep.structure_constants
    diag_idx = _diagonal_generator_indices(rep.generators)
    if diag_idx:
        coeff = np.zeros(K)
        coeff[diag_idx] = 1.0 + rng.random(len(diag_idx))
        if len(_kernel_basis(_combination(coeff, f))) == len(diag_idx):
            # the diagonal generators themselves are a clean kernel basis;
            # keep them instead of the SVD mixture
            yield np.eye(K)[diag_idx]
    for _ in range(4):
        yield _kernel_basis(_combination(rng.standard_normal(K), f))


def cartan_decompose(rep: AlgebraRep) -> CartanData:
    """Extract Cartan subalgebra, roots, ladder operators, and weights.

    The Cartan subalgebra is the kernel of the adjoint action of a generic
    algebra element (a deterministic pseudo-random combination; when some
    generators are already diagonal matrices, a generic combination of
    those is tried first so the extracted basis is the standard one).  One
    routine, ``_joint_eigenbasis``, then gives both the roots, as the
    eigenvalue tuples of the commuting adjoint actions of the H_i, and the
    weights, as those of the H_i themselves.

    Raises
    ------
    RuntimeError
        If extraction fails (for example, no common eigenbasis after retries,
        or broken ladder relations) for every candidate Cartan subalgebra.
    ValueError
        If the highest weight is degenerate ("highest weight not unique"),
        or from ``uncertainty_bounds`` if the root-space pairings disagree
        with the highest-weight state ("normalization inconsistency").
    """
    K = rep.dim_algebra
    rng = _probe_rng()
    last_err = None
    for cartan_coeff in _cartan_candidates(rep, rng):
        rank = len(cartan_coeff)
        if rank < 1 or (K - rank) % 2 != 0:
            last_err = f"kernel rank {rank} leaves an odd number of roots"
            continue
        try:
            return _decompose_with_kernel(rep, cartan_coeff, rng)
        except RuntimeError as err:
            last_err = str(err)
    raise RuntimeError(f"Cartan extraction failed: {last_err}")


def _first_failing_root(resid, tol, message):
    """RuntimeError naming the lowest root m with resid[m] > tol[m]."""
    bad = np.flatnonzero(resid > tol)
    if bad.size:
        raise RuntimeError(message.format(m=bad[0], resid=resid[bad[0]]))


def _decompose_with_kernel(rep, cartan_coeff, rng):
    gens = rep.generators
    f = rep.structure_constants
    K = rep.dim_algebra
    d = rep.dim_hilbert
    rank = len(cartan_coeff)  # orthonormal rows
    cartan_gens = _combination(cartan_coeff, gens)

    prod = cartan_gens[:, None] @ cartan_gens  # (r, r, d, d): H_i H_j
    comm_resid = _max_abs(prod - prod.swapaxes(0, 1))
    if comm_resid > 1e-10 * max(1.0, _max_abs(cartan_gens)):
        raise RuntimeError(f"extracted Cartan set does not commute: {comm_resid:.3e}")

    # Adjoint actions of the H_i on coefficient space: t = sum_i c_i f[i] is
    # real antisymmetric with [H, X_j] = 1j sum_k t[j, k] X_k, so 1j t.T is
    # Hermitian K x K and purely imaginary, and the conjugate of a root
    # vector of a is one of -a.
    ad = 1j * _combination(cartan_coeff, f).swapaxes(1, 2)
    vecs, vals = _joint_eigenbasis(ad, rng, ROOT_TOL)
    signs = _lex_signs(vals)
    n_zero = int(np.sum(signs == 0.0))
    if n_zero != rank:
        raise RuntimeError(f"{n_zero} zero roots, expected the rank {rank}")

    # Deterministic ordering: lexicographically descending positive roots.
    order = _lex_order(vals, np.flatnonzero(signs > 0.0))
    positive_roots = vals[order]
    root_vectors = _canonical_phase(vecs[:, order]).T
    raising = _combination(root_vectors, gens)

    # Ladder relations [H_i, E_a] = a_i E_a and [E_a, E_a^dag] = a . H in
    # the representation itself, each one product stacked over the roots.
    scale = np.maximum(1.0, np.abs(raising).max(axis=(1, 2)))
    ladder = cartan_gens @ raising[:, None] - raising[:, None] @ cartan_gens
    ladder -= positive_roots[:, :, None, None] * raising[:, None]
    _first_failing_root(np.abs(ladder).max(axis=(1, 2, 3)), ROOT_TOL * scale,
                        "ladder relation fails for root {m}: residual {resid:.3e}")
    lowering = raising.conj().swapaxes(1, 2)
    target = _combination(positive_roots, cartan_gens)
    _first_failing_root(np.abs(raising @ lowering - lowering @ raising - target).max(axis=(1, 2)),
                        ROOT_TOL * np.maximum(1.0, np.abs(target).max(axis=(1, 2))),
                        "[E, E^dag] != root . H for root {m}: residual {resid:.3e}")

    # Adapted orthogonal basis: Cartan rows then (re, im) pair per root.
    rotation = np.zeros((K, K))
    rotation[:rank] = cartan_coeff
    rotation[rank::2] = np.sqrt(2.0) * root_vectors.real
    rotation[rank + 1::2] = np.sqrt(2.0) * root_vectors.imag
    ortho_resid = _max_abs(rotation @ rotation.T - np.eye(K))
    if ortho_resid > 1e-10:
        raise RuntimeError(
            f"adapted basis is not orthogonal: residual {ortho_resid:.3e}"
        )

    weight_basis, weights = _joint_eigenbasis(cartan_gens, rng, WEIGHT_TOL)
    order = _lex_order(weights, range(d))
    weight_basis = _canonical_phase(weight_basis[:, order])
    weights = weights[order]

    # Highest weight: the unique weight vector killed by every raising op,
    # |E_a v_s| for every root a and weight state s from one product.
    killed = np.linalg.norm(raising @ weight_basis, axis=1) < ANNIHILATION_TOL * scale[:, None]
    annihilated = np.flatnonzero(killed.all(axis=0))
    if not annihilated.size:
        raise RuntimeError("no weight state is annihilated by all raising operators")
    if annihilated.size > 1:
        raise ValueError("highest weight not unique")
    hw_index = int(annihilated[0])
    highest = weights[hw_index].copy()
    pos_sum = positive_roots.sum(axis=0)

    roots = np.vstack([positive_roots, -positive_roots])
    for arr in (cartan_gens, rotation, positive_roots, roots, raising,
                weight_basis, weights, highest, pos_sum):
        arr.flags.writeable = False
    data = CartanData(
        rank=rank,
        cartan_generators=cartan_gens,
        basis_rotation=rotation,
        positive_roots=positive_roots,
        roots=roots,
        raising_ops=raising,
        weight_basis=weight_basis,
        weights=weights,
        highest_weight=highest,
        highest_weight_index=hw_index,
        positive_root_sum=pos_sum,
    )
    uncertainty_bounds(rep, data)  # no other Cartan choice changes the pairings
    return data


def highest_weight_state(cartan: CartanData) -> np.ndarray:
    """The normalized extremal weight vector |hw>."""
    return cartan.weight_basis[:, cartan.highest_weight_index].copy()


def generate_gcs(rep: AlgebraRep, cartan: CartanData, params) -> np.ndarray:
    """Group-orbit coherent state exp(1j * sum_k params_k X_k) |hw>.

    Parameters
    ----------
    params : (K,) array_like of float
        Real coefficients on the generators.

    Returns
    -------
    (d,) complex ndarray, normalized.
    """
    params = _coefficients("params", params, rep.dim_algebra)
    u = unitary_exp(_combination(params, rep.generators))
    psi = u @ cartan.weight_basis[:, cartan.highest_weight_index]
    return psi / _norm(psi)


def weight_string(cartan: CartanData, state_index: int, root_index: int):
    """Spin content (j, m) of a weight state under one root's su(2) triple.

    Walks the weight string through the state by repeated application of
    the raising/lowering operators of the root: p raises and q lowers give
    j = (p + q)/2 and m = j - p.  Cross-checked against the pairing
    m = (a, weight)/|a|^2.
    """
    a = cartan.positive_roots[root_index]
    E = cartan.raising_ops[root_index]
    scale = max(1.0, _max_abs(E))

    def count_steps(op, vec):
        steps = 0
        v = vec.copy()
        for _ in range(cartan.weights.shape[0] + 1):
            v = op @ v
            nrm = _norm(v)
            if nrm < ANNIHILATION_TOL * scale:
                return steps
            v /= nrm
            steps += 1
        raise RuntimeError("weight string did not terminate")

    v0 = cartan.weight_basis[:, state_index]
    p = count_steps(E, v0)
    q = count_steps(E.conj().T, v0)
    j = 0.5 * (p + q)
    m = j - p
    m_pair = float(a @ cartan.weights[state_index]) / float(a @ a)
    if abs(m - m_pair) > 1e-8 * max(1.0, abs(m)):
        raise RuntimeError(
            f"weight-string position {m} disagrees with pairing {m_pair}"
        )
    return j, m


def _root_component_norm(v, cartan):
    return _norm(cartan.basis_rotation[cartan.rank:] @ v)


def align_expectation_to_cartan(psi, rep: AlgebraRep, cartan: CartanData):
    """Rotate a state by a group element so <X> lies in the Cartan span.

    Returns the rotated state (the input is unchanged).  The rotation is a
    unitary exp(1j B) with B in the algebra, so every invariant built from
    the full generator set (uncertainty, squared covariance norm, drift) is
    unchanged; only the decomposition of <X> into Cartan and root
    components is gauged away.

    Two paths: an exact eigenbasis rotation for the defining su(N), N > 2
    (d^2 - 1 generators), and cyclic Jacobi sweeps over the su(2) triples
    of the positive roots otherwise, at most ALIGNMENT_SWEEPS of them; on
    su(2) one sweep is one exact axis-angle rotation.  The residual root
    component is held to ALIGNMENT_TOL * max(1, |<X>|), and RuntimeError
    names it when it is not met.  An unnormalized or non-finite psi raises
    ValueError.
    """
    psi = np.asarray(psi, dtype=complex)
    v = expectation_vector(psi, rep)
    tol = ALIGNMENT_TOL * max(1.0, _norm(v))
    out, resid = psi / _norm(psi), _root_component_norm(v, cartan)
    d = rep.dim_hilbert
    if resid > tol and rep.dim_algebra == d * d - 1 and d > 2:
        out = _align_eigenbasis(psi, v, rep, cartan)
        resid = _root_component_norm(expectation_vector(out, rep), cartan)
    else:
        for _ in range(ALIGNMENT_SWEEPS):
            if resid <= tol:
                break
            out, v = _root_triple_sweep(out, v, rep, cartan)
            resid = _root_component_norm(v, cartan)
    if resid > tol:
        raise RuntimeError(
            f"Cartan alignment failed: residual root component {resid:.3e}"
        )
    return out


def _align_eigenbasis(psi, v, rep, cartan):
    """Exact rotation for fundamental representations: diagonalize <X>.X.

    In the fundamental representation every special unitary is a group
    element, up to a global phase.  With A = sum v_k X_k = V D V^dagger,
    V^dagger takes the traceless part of |psi><psi|, which is A / lam, to
    a diagonal matrix, and the weight basis W then takes it to one
    diagonal in W, that is into the Cartan span: the state W V^dagger psi
    has <X> in the Cartan span in any basis of the representation.  Each
    column of V gets ``_canonical_phase``'s phase, so the result does not
    depend on the phases ``eigh`` happens to return.
    """
    a = _combination(v, rep.generators)
    _, vecs = np.linalg.eigh(a)
    vecs = _canonical_phase(vecs)
    out = cartan.weight_basis @ (vecs.conj().T @ psi)
    return out / _norm(out)


def _root_triple_sweep(psi, v, rep, cartan):
    """One cyclic Jacobi sweep: zero each positive root's component of <X>.

    For positive root a with H_a = (a / |a|) . H and the adapted root pair
    Y_1, Y_2 (rows r + 2m, r + 2m + 1 of ``basis_rotation``),
    [H_a, Y_1] = i |a| Y_2 cyclically, so J = (H_a, Y_1, Y_2) / |a| obey
    the standard su(2) relations and exp(-1j theta n.J) turns the triple's
    part of <X> right-handedly by theta about n.  The axis n, in the Y
    plane, and theta = atan2(|root part|, Cartan part) take that part onto
    +H_a and zero the root-a component exactly.  The other root spaces
    only mix among themselves and the Cartan directions orthogonal to a
    stay, so each step lowers the squared root component by the part it
    zeroes (Jacobi's method on compact Lie algebras: Kleinsteuber, Helmke
    & Hueper, 2004).  Returns the rotated state and its <X>.
    """
    r, rows = cartan.rank, cartan.basis_rotation
    for m, root in enumerate(cartan.positive_roots.tolist()):
        w = (rows @ v).tolist()
        y1, y2 = w[r + 2 * m], w[r + 2 * m + 1]
        off = math.hypot(y1, y2)
        if off == 0.0:
            continue
        size = math.hypot(*root)
        along = sum(x * y for x, y in zip(root, w[:r])) / size
        axis = np.array([y2 / off, -y1 / off]) @ rows[r + 2 * m : r + 2 * m + 2]
        psi = unitary_exp(_combination(axis, rep.generators), -math.atan2(off, along) / size) @ psi
        psi /= _norm(psi)
        v = expectation_vector(psi, rep)
    return psi, v


def cartan_debug_dict(cartan: CartanData) -> dict:
    """JSON-serializable dump of roots and weights."""
    return {
        "rank": cartan.rank,
        "positive_roots": cartan.positive_roots.tolist(),
        "roots": cartan.roots.tolist(),
        "weights": cartan.weights.tolist(),
        "highest_weight": cartan.highest_weight.tolist(),
        "positive_root_sum": cartan.positive_root_sum.tolist(),
    }
