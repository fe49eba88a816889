"""Cartan decomposition, roots, weights, and generalized coherent states.

Given an AlgebraRep this module extracts a maximal commuting set of
generators (the Cartan subalgebra), the root system of the adjoint action,
ladder operators normalized so that [E_a, E_a^dag] = a . H, the weight
basis of the Hilbert space, and the highest-weight state.  Generalized
coherent states are group orbits of the highest-weight state,
exp(1j * sum_k params_k X_k) |hw>.

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

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraRep, _max_abs, unitary_exp
from .dynamics import _moments

__all__ = [
    "CartanData",
    "align_expectation_to_cartan",
    "cartan_decompose",
    "cartan_debug_dict",
    "generate_gcs",
    "highest_weight_state",
    "su2_triple_for_root",
    "weight_string",
]

ROOT_TOL = 1e-8
WEIGHT_TOL = 1e-10
KERNEL_TOL = 1e-8
DIAGONAL_TOL = 1e-12
ANNIHILATION_TOL = 1e-9
PAIRING_TOL = 1e-6
ALIGNMENT_TOL = 1e-10

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
    normalization : float
        Copy of the generator trace norm lam.
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
    normalization: float

    @property
    def n_positive(self) -> int:
        return self.positive_roots.shape[0]


def _probe_rng():
    return np.random.Generator(np.random.Philox(key=_PROBE_KEY))


def _adjoint_matrix(coeff, f):
    """Real antisymmetric matrix t with [A, X_j] = 1j sum_k t[j, k] X_k
    for A = sum_i coeff_i X_i.  The Hermitian adjoint action on complex
    coefficient vectors is 1j * t.T."""
    return np.tensordot(coeff, f, axes=(0, 0))


def _canonical_phase(vec, tol=1e-12):
    """Rotate a complex vector's global phase so its largest entry is real
    positive; deterministic up to ties broken by the first maximal index."""
    idx = int(np.argmax(np.abs(vec)))
    pivot = vec[idx]
    if abs(pivot) < tol:
        return vec
    return vec * (np.conj(pivot) / abs(pivot))


def _lex_sign(vec, tol=1e-10):
    for x in vec:
        if abs(x) > tol:
            return 1.0 if x > 0 else -1.0
    return 0.0


def _diagonal_generator_indices(gens):
    idx = []
    for i, g in enumerate(gens):
        if _max_abs(g - np.diag(np.diag(g))) < DIAGONAL_TOL:
            idx.append(i)
    return idx


def _kernel_basis(t, K):
    """Orthonormal real basis of the null space of the probe adjoint."""
    u, s, vt = np.linalg.svd(t)
    smax = max(s[0], 1.0) if s.size else 1.0
    null = s < KERNEL_TOL * smax
    return vt[null].T, int(np.sum(null))


def _simultaneous_weights(cartan_gens, mix_weights, tol):
    """Diagonalize a generic combination of commuting Hermitian matrices and
    return (unitary, per-matrix eigenvalue columns); verifies that every
    matrix is diagonal in the common basis."""
    combo = np.tensordot(mix_weights, cartan_gens, axes=(0, 0))
    _, vecs = np.linalg.eigh(combo)
    vals = []
    for h in cartan_gens:
        rotated = vecs.conj().T @ h @ vecs
        off = _max_abs(rotated - np.diag(np.diag(rotated)))
        if off > tol * max(_max_abs(rotated), 1.0):
            return None, None
        vals.append(np.real(np.diag(rotated)))
    return vecs, np.array(vals).T


def cartan_decompose(rep: AlgebraRep) -> CartanData:
    """Extract Cartan subalgebra, roots, ladder operators, and weights.

    The Cartan subalgebra is found as the kernel of the adjoint action of a
    generic algebra element (a deterministic pseudo-random combination;
    when some generators are already diagonal matrices, a generic
    combination of those is preferred so the extracted basis is the
    standard one).  Root vectors are eigenvectors of the commuting adjoint
    actions of the H_i; their eigenvalue tuples are the roots.

    Raises
    ------
    RuntimeError
        If extraction fails (degenerate probe after retries, broken root
        pairing, or inconsistent pairings between root space and states).
    ValueError
        If the highest weight is degenerate ("highest weight not unique").
    """
    gens = rep.generators
    f = rep.structure_constants
    K = rep.dim_algebra
    lam = rep.normalization
    rng = _probe_rng()

    diag_idx = _diagonal_generator_indices(gens)
    attempts = []
    if diag_idx:
        attempts.append("diagonal")
    attempts += ["random"] * 4

    last_err = None
    for mode in attempts:
        if mode == "diagonal":
            coeff = np.zeros(K)
            coeff[diag_idx] = 1.0 + rng.random(len(diag_idx))
        else:
            coeff = rng.standard_normal(K)
        t = _adjoint_matrix(coeff, f)
        kernel, rank = _kernel_basis(t, K)
        if mode == "diagonal":
            if rank == len(diag_idx):
                # The diagonal generators themselves are a clean kernel
                # basis; keep them instead of the SVD mixture.
                kernel = np.zeros((K, rank))
                for col, i in enumerate(diag_idx):
                    kernel[i, col] = 1.0
            else:
                last_err = (
                    f"diagonal probe kernel rank {rank} != {len(diag_idx)}"
                )
                continue
        if (K - rank) % 2 != 0 or rank < 1:
            last_err = f"kernel rank {rank} leaves an odd number of roots"
            continue
        try:
            return _decompose_with_kernel(rep, kernel, rank, rng)
        except RuntimeError as err:
            last_err = str(err)
            continue
    raise RuntimeError(f"Cartan extraction failed: {last_err}")


def _decompose_with_kernel(rep, kernel, rank, rng):
    gens = rep.generators
    f = rep.structure_constants
    K = rep.dim_algebra
    d = rep.dim_hilbert
    lam = rep.normalization

    cartan_coeff = kernel.T  # (r, K) orthonormal rows
    cartan_gens = np.tensordot(cartan_coeff, gens, axes=(1, 0))

    comm_resid = 0.0
    for i in range(rank):
        for j in range(i + 1, rank):
            comm_resid = max(
                comm_resid,
                _max_abs(cartan_gens[i] @ cartan_gens[j] - cartan_gens[j] @ cartan_gens[i]),
            )
    if comm_resid > 1e-10 * max(1.0, _max_abs(cartan_gens)):
        raise RuntimeError(f"extracted Cartan set does not commute: {comm_resid:.3e}")

    # Adjoint actions of the H_i on coefficient space, Hermitian K x K.
    ad = np.array([1j * _adjoint_matrix(c, f).T for c in cartan_coeff])

    # A generic real combination separates the root values; retry with new
    # mixing weights if eigenvalues cluster ambiguously.
    for _ in range(8):
        mix = 1.0 + rng.random(rank)
        combo = np.tensordot(mix, ad, axes=(0, 0))
        vals, vecs = np.linalg.eigh(combo)
        scale = max(_max_abs(vals), 1.0)
        zero = np.abs(vals) < KERNEL_TOL * scale
        if int(np.sum(zero)) == rank:
            gap = np.min(np.abs(vals[~zero])) if np.any(~zero) else 0.0
            spacing = np.min(np.diff(np.sort(vals[~zero]))) if np.sum(~zero) > 1 else gap
            if gap > 1e-6 * scale and (np.sum(~zero) <= 1 or spacing > 1e-6 * scale):
                break
    else:
        raise RuntimeError("could not separate root values with a generic probe")

    n_pos = (K - rank) // 2
    pos_entries = []
    used = np.zeros(K, dtype=bool)
    order = np.argsort(-vals)
    for idx in order:
        if zero[idx] or used[idx]:
            continue
        if vals[idx] < 0:
            continue
        e = vecs[:, idx]
        root = np.array([float(np.real(e.conj() @ adh @ e)) for adh in ad])
        resid = max(_max_abs(adh @ e - comp * e) for adh, comp in zip(ad, root))
        if resid > ROOT_TOL * max(1.0, _max_abs(root)):
            raise RuntimeError(
                f"root eigenvector is not simultaneous: residual {resid:.3e}"
            )
        sign = _lex_sign(root)
        if sign == 0.0:
            raise RuntimeError("root with vanishing components")
        if sign < 0:
            root = -root
            e = np.conj(e)
        e = _canonical_phase(e)
        pos_entries.append((root, e))
        used[idx] = True

    if len(pos_entries) != n_pos:
        raise RuntimeError(
            f"found {len(pos_entries)} positive roots, expected {n_pos}"
        )

    # Deterministic ordering: lexicographically descending roots.
    pos_entries.sort(key=lambda item: tuple(-item[0]))
    positive_roots = np.array([item[0] for item in pos_entries])
    root_vectors = [item[1] for item in pos_entries]
    raising = np.array(
        [np.tensordot(e, gens, axes=(0, 0)) for e in root_vectors]
    )

    # Ladder relations [H_i, E_a] = a_i E_a in the representation itself.
    for m, (root, E) in enumerate(zip(positive_roots, raising)):
        for i in range(rank):
            resid = _max_abs(
                cartan_gens[i] @ E - E @ cartan_gens[i] - root[i] * E
            )
            if resid > ROOT_TOL * max(1.0, _max_abs(E)):
                raise RuntimeError(
                    f"ladder relation fails for root {m}: residual {resid:.3e}"
                )
        pair = E @ E.conj().T - E.conj().T @ E
        target = np.tensordot(root, cartan_gens, axes=(0, 0))
        resid = _max_abs(pair - target)
        if resid > ROOT_TOL * max(1.0, _max_abs(target)):
            raise RuntimeError(
                f"[E, E^dag] != root . H for root {m}: residual {resid:.3e}"
            )

    # Adapted orthogonal basis: Cartan rows then (re, im) pair per root.
    rotation = np.zeros((K, K))
    rotation[:rank] = cartan_coeff
    for m, e in enumerate(root_vectors):
        rotation[rank + 2 * m] = np.sqrt(2.0) * np.real(e)
        rotation[rank + 2 * m + 1] = np.sqrt(2.0) * np.imag(e)
    ortho_resid = _max_abs(rotation @ rotation.T - np.eye(K))
    if ortho_resid > 1e-10:
        raise RuntimeError(
            f"adapted basis is not orthogonal: residual {ortho_resid:.3e}"
        )

    mix = 1.0 + rng.random(rank)
    weight_basis, weights = _simultaneous_weights(cartan_gens, mix, WEIGHT_TOL)
    if weight_basis is None:
        raise RuntimeError("weight basis extraction failed: H_i not simultaneously diagonal")

    order = sorted(range(d), key=lambda s: tuple(-weights[s]))
    weight_basis = weight_basis[:, order]
    weights = weights[order]
    weight_basis = np.column_stack(
        [_canonical_phase(weight_basis[:, s]) for s in range(d)]
    )

    # Highest weight: the unique weight vector killed by every raising op.
    annihilated = []
    for s in range(d):
        v = weight_basis[:, s]
        if all(
            np.linalg.norm(E @ v) < ANNIHILATION_TOL * max(1.0, _max_abs(E))
            for E in raising
        ):
            annihilated.append(s)
    if not annihilated:
        raise RuntimeError("no weight state is annihilated by all raising operators")
    if len(annihilated) > 1:
        raise ValueError("highest weight not unique")
    hw_index = annihilated[0]
    highest = weights[hw_index].copy()
    pos_sum = positive_roots.sum(axis=0)

    # Consistency between root-space pairings and state-level moments:
    # (hw, hw + pos_sum) must reproduce the quadratic invariant and
    # (hw, pos_sum) the uncertainty of the highest-weight state.
    c_pair = float(np.dot(highest, highest + pos_sum))
    if abs(c_pair - rep.casimir_eigenvalue) > PAIRING_TOL * max(
        1.0, abs(rep.casimir_eigenvalue)
    ):
        raise RuntimeError(
            "normalization inconsistency between root space and generators: "
            f"(hw, hw + root sum) = {c_pair:.12g} vs invariant "
            f"{rep.casimir_eigenvalue:.12g}"
        )
    mom = _moments(weight_basis[None, :, hw_index], rep)
    delta_state = float(mom.second[0] - mom.purity[0])
    delta_pair = float(np.dot(highest, pos_sum))
    if abs(delta_state - delta_pair) > PAIRING_TOL * max(1.0, abs(delta_pair)):
        raise RuntimeError(
            "normalization inconsistency between root space and generators: "
            f"state uncertainty {delta_state:.12g} vs (hw, root sum) "
            f"{delta_pair:.12g}"
        )

    roots = np.vstack([positive_roots, -positive_roots])
    for arr in (cartan_gens, rotation, positive_roots, roots, raising,
                weight_basis, weights, highest, pos_sum):
        arr.flags.writeable = False
    return CartanData(
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
        normalization=lam,
    )


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
    params = np.asarray(params, dtype=float)
    if params.shape != (rep.dim_algebra,):
        raise ValueError(
            f"params must have shape ({rep.dim_algebra},), got {params.shape}"
        )
    u = unitary_exp(np.tensordot(params, rep.generators, axes=(0, 0)))
    psi = u @ highest_weight_state(cartan)
    return psi / np.linalg.norm(psi)


def su2_triple_for_root(cartan: CartanData, root_index: int):
    """Normalized spin triple (E3, Eplus, Eminus) of one positive root.

    E3 = (a . H)/|a|^2 and Eplus/Eminus = E_{+a}/|a|, E_{-a}/|a| satisfy
    [E3, E+-] = +-E+- and [E+, E-] = E3.
    """
    a = cartan.positive_roots[root_index]
    norm2 = float(a @ a)
    e3 = np.tensordot(a, cartan.cartan_generators, axes=(0, 0)) / norm2
    ep = cartan.raising_ops[root_index] / np.sqrt(norm2)
    em = ep.conj().T
    return e3, ep, em


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
            nrm = np.linalg.norm(v)
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


def _expectations(psi, rep):
    return _moments(psi[None, :], rep).v[0]


def _root_component_norm(v, cartan):
    rotated = cartan.basis_rotation @ v
    return float(np.linalg.norm(rotated[cartan.rank:]))


def align_expectation_to_cartan(psi, rep: AlgebraRep, cartan: CartanData):
    """Rotate a state by a group element so <X> lies in the Cartan span.

    Returns the rotated state (the input is unchanged).  The rotation is a
    unitary exp(1j B) with B in the algebra, so every invariant built from
    the full generator set (uncertainty, squared covariance norm, drift) is
    unchanged; only the decomposition of <X> into Cartan and root
    components is gauged away.

    The path follows the algebra: an exact axis-angle rotation when K = 3,
    an exact eigenbasis rotation for the fundamental representation
    (d^2 - 1 generators), and a damped Newton iteration on the root-plane
    components otherwise.  The residual root component is held to
    ALIGNMENT_TOL.
    """
    psi = np.asarray(psi, dtype=complex)
    v = _expectations(psi, rep)
    vnorm = float(np.linalg.norm(v))
    if vnorm < 1e-12:
        return psi.copy()
    if _root_component_norm(v, cartan) <= ALIGNMENT_TOL * max(1.0, vnorm):
        return psi.copy()

    K, d = rep.dim_algebra, rep.dim_hilbert
    if K == 3:
        out = _align_axis_angle(psi, v, rep, cartan)
    elif K == d * d - 1:
        out = _align_eigenbasis(psi, v, rep, cartan)
    else:
        out = _align_newton(psi, v, rep, cartan)

    resid = _root_component_norm(_expectations(out, rep), cartan)
    if resid > max(ALIGNMENT_TOL, 1e-10 * vnorm):
        raise RuntimeError(
            f"Cartan alignment failed: residual root component {resid:.3e}"
        )
    return out


def _align_axis_angle(psi, v, rep, cartan):
    """Exact rotation for rank-1 K=3 algebras: take v to the Cartan axis.

    v has a root component (the caller returns early otherwise), so it is
    not parallel to the axis c and v x c is a rotation axis."""
    c = cartan.basis_rotation[0]
    vhat = v / np.linalg.norm(v)
    axis = np.cross(vhat, c)
    axis /= np.linalg.norm(axis)
    theta = float(np.arccos(np.clip(vhat @ c, -1.0, 1.0)))
    # The adjoint action of exp(-1j theta n.X / s) on expectation vectors is
    # the right-handed rotation by theta about n: the structure constants
    # are s times the 3d Levi-Civita symbol, s = f[0, 1, 2], so X / s obey
    # the standard su(2) relations for either sign of s (either basis
    # orientation).
    scale = rep.structure_constants[0, 1, 2]
    gen = np.tensordot(axis, rep.generators, axes=(0, 0))
    out = unitary_exp(gen, -theta / scale) @ psi
    return out / np.linalg.norm(out)


def _align_eigenbasis(psi, v, rep, cartan):
    """Exact rotation for fundamental representations: diagonalize <X>.X.

    In the fundamental representation every special unitary is a group
    element, so the eigenbasis rotation of A = sum v_k X_k is an adjoint
    rotation taking <X> into the diagonal (Cartan) span.
    """
    a = np.tensordot(v, rep.generators, axes=(0, 0))
    _, vecs = np.linalg.eigh(a)
    out = vecs.conj().T @ psi
    return out / np.linalg.norm(out)


def _align_newton(psi, v, rep, cartan, max_iter=200):
    """Damped Newton iteration zeroing the root-plane components of <X>.

    Each update is a group rotation exp(1j sum theta_a Y_a) over the
    adapted root-plane directions Y_a, with the Jacobian of the root
    components assembled from commutators at the current point.
    """
    gens = rep.generators
    rot = cartan.basis_rotation
    r = cartan.rank
    K = rep.dim_algebra
    lam = rep.normalization
    adapted = np.tensordot(rot[r:], gens, axes=(1, 0))  # root-plane directions

    out = psi.copy()
    v = v.copy()
    resid = _root_component_norm(v, cartan)
    for _ in range(max_iter):
        if resid <= ALIGNMENT_TOL:
            return out
        a_mat = np.tensordot(v, gens, axes=(0, 0))
        jac = np.zeros((K - r, K - r))
        for col, y in enumerate(adapted):
            comm = 1j * (y @ a_mat - a_mat @ y)
            coeff = np.real(np.einsum("ab,kba->k", comm, gens)) / lam
            jac[:, col] = (rot @ coeff)[r:]
        target = -(rot @ v)[r:]
        theta, *_ = np.linalg.lstsq(jac, target, rcond=None)
        step = 1.0
        for _ in range(30):
            b = np.tensordot(step * theta, adapted, axes=(0, 0))
            cand = unitary_exp(b) @ out
            cand /= np.linalg.norm(cand)
            v_cand = _expectations(cand, rep)
            resid_cand = _root_component_norm(v_cand, cartan)
            if resid_cand < resid:
                out, v, resid = cand, v_cand, resid_cand
                break
            step *= 0.5
        else:
            raise RuntimeError(
                f"Cartan alignment stalled at residual {resid:.3e}"
            )
    raise RuntimeError(f"Cartan alignment did not converge: residual {resid:.3e}")


def cartan_debug_dict(cartan: CartanData) -> dict:
    """JSON-serializable dump of roots and weights."""
    return {
        "rank": cartan.rank,
        "positive_roots": cartan.positive_roots.tolist(),
        "roots": cartan.roots.tolist(),
        "weights": cartan.weights.tolist(),
        "highest_weight": cartan.highest_weight.tolist(),
        "positive_root_sum": cartan.positive_root_sum.tolist(),
        "normalization": cartan.normalization,
    }
