"""State functionals of the measured algebra: uncertainty, purity, covariance.

For a normalized pure state |psi> and generators X_1..X_K the central
quantities are

    expectation vector   v_k   = <X_k>
    generalized purity   P     = sum_k v_k^2
    total uncertainty    Delta = sum_k <X_k^2> - P = c - P
    covariance matrix    M_kl  = <X_k X_l + X_l X_k> - 2 v_k v_l
    squared norm         T     = sum_kl M_kl^2
    localization drift   D     = 2 gamma (c_adj P - T)

The functions of one state read it as a (2d,) row of interleaved real and
imaginary parts and form these from its stack of X_k psi by
``ndarray.dot``, in the order ``dynamics._moments`` and its moment
functions take for a batch (the records and the theorem scan), without
the batch gufuncs' dispatch.

D is the ensemble-average time derivative of Delta under pure measurement
dynamics; it is nonpositive everywhere and vanishes exactly on the
coherent-state orbit of the highest weight, which minimizes the trace norm
tr M = 2 Delta over pure states.  The orbit minimizes T on the su(2) and
defining su(N) algebras the CLI builds, but not on Sym^3 of su(3), where a
pure state has T = 8.8993 < T_hw = 9.  ``uncertainty_bounds`` exposes the
two root-space constants that bracket Delta:

    delta_min = (hw, root sum)   <=  Delta  <=  c = (hw, hw + root sum).

``cartan_split_sums`` partitions T in the adapted (Cartan plus root pair)
basis; the root-pair block has a closed form in ladder-operator moments
for states whose expectation vector has been rotated into the Cartan span,
which ``root_pair_closed_form`` evaluates.  Both are stacked over roots:
the ladder moments come from E_a psi and psi^dag E_a of all raising
operators at once, the same-line block from one contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraRep
from .dynamics import _centred, _check_gamma, _drift, _validate_state

__all__ = [
    "CartanSplit",
    "covariance_matrix",
    "covariance_trace_norm",
    "cartan_split_sums",
    "expectation_vector",
    "generalized_purity",
    "localization_drift",
    "root_pair_closed_form",
    "total_uncertainty",
    "uncertainty_bounds",
]

BOUNDS_CONSISTENCY_TOL = 1e-6


def _row_moments(psi, rep):
    """(pf, z, v) of one state as a row: the (2d,) interleaved real row pf,
    z the (K, 2d) stack of X_k psi in that layout and v = <X_k>, formed as
    ``dynamics._moments`` forms them for a batch, each contraction an
    ``ndarray.dot``: the BLAS kernels the batch runs, without its
    dispatch."""
    pf = _validate_state(psi, rep.dim_hilbert).view(np.float64)
    z = pf.dot(rep.moment_stack).reshape(rep.dim_algebra, -1)
    return pf, z, z.dot(pf)


def _row_tnorm(u):
    """T = sum_kl M_kl^2 of one state, from the smaller Gram matrix of U
    as ``dynamics._tnorm`` takes it."""
    gram = u.dot(u.T) if u.shape[0] <= u.shape[1] else u.T.dot(u)
    return 4.0 * np.vdot(gram, gram)


def expectation_vector(psi, rep: AlgebraRep) -> np.ndarray:
    """<X_k> for every generator, a real vector of length K."""
    return _row_moments(psi, rep)[2]


def generalized_purity(psi, rep: AlgebraRep) -> float:
    """Squared Euclidean length of the expectation vector."""
    v = _row_moments(psi, rep)[2]
    return float(v.dot(v))


def total_uncertainty(psi, rep: AlgebraRep) -> float:
    """sum_k <X_k^2> - sum_k <X_k>^2, the basis-invariant variance sum."""
    _, z, v = _row_moments(psi, rep)
    return float(np.vdot(z, z) - v.dot(v))


def covariance_matrix(psi, rep: AlgebraRep) -> np.ndarray:
    """Symmetrized covariance M_kl = <{X_k, X_l}> - 2 <X_k><X_l>."""
    u = _centred(*_row_moments(psi, rep))
    return 2.0 * u.dot(u.T)


def covariance_trace_norm(psi, rep: AlgebraRep) -> float:
    """Squared Frobenius norm sum_kl M_kl^2 of the covariance matrix."""
    return float(_row_tnorm(_centred(*_row_moments(psi, rep))))


def localization_drift(psi, rep: AlgebraRep, gamma: float) -> float:
    """Ensemble-mean uncertainty drift rate 2 gamma (c_adj P - sum M^2).

    Nonpositive for every pure state; zero exactly on the coherent-state
    orbit.
    """
    _check_gamma(gamma)
    pf, z, v = _row_moments(psi, rep)
    return float(_drift(rep, gamma, v.dot(v), _row_tnorm(_centred(pf, z, v))))


def uncertainty_bounds(rep: AlgebraRep, cartan):
    """(delta_min, c): the invariant range of the total uncertainty.

    delta_min = (hw, root sum) is the uncertainty of the extremal state and
    its orbit; c = (hw, hw + root sum) is the quadratic invariant reached
    by completely delocalized states.  Both are cross-checked against the
    state-level moments of the extremal state; a mismatch beyond 1e-6
    signals an inconsistent normalization between the root-space pairing
    and the generator basis.
    """
    hw = cartan.highest_weight
    mu = cartan.positive_root_sum
    delta_min = float(hw @ mu)
    c_pair = float(hw @ (hw + mu))

    v = cartan.weight_basis[:, cartan.highest_weight_index]
    delta_state = total_uncertainty(v, rep)
    if abs(delta_state - delta_min) > BOUNDS_CONSISTENCY_TOL * max(1.0, abs(delta_min)):
        raise ValueError(
            "normalization inconsistency between root space and generators: "
            f"(hw, root sum) = {delta_min:.12g} but extremal-state "
            f"uncertainty = {delta_state:.12g}"
        )
    if abs(c_pair - rep.casimir_eigenvalue) > BOUNDS_CONSISTENCY_TOL * max(
        1.0, abs(rep.casimir_eigenvalue)
    ):
        raise ValueError(
            "normalization inconsistency between root space and generators: "
            f"(hw, hw + root sum) = {c_pair:.12g} but invariant = "
            f"{rep.casimir_eigenvalue:.12g}"
        )
    return delta_min, float(rep.casimir_eigenvalue)


@dataclass(frozen=True)
class CartanSplit:
    """Partition of sum M^2 over ordered index pairs in the adapted basis.

    cartan_block : both indices in the Cartan rows.
    mixed_block : one Cartan row, one root row (both orders).
    same_line_block : both indices in the two rows of one positive root.
    cross_line_block : root rows of two different positive roots.
    The four blocks sum to the full squared covariance norm.
    """

    cartan_block: float
    mixed_block: float
    same_line_block: float
    cross_line_block: float
    total: float


def cartan_split_sums(psi, rep: AlgebraRep, cartan) -> CartanSplit:
    """Partition the squared covariance norm by adapted-basis sectors."""
    o = cartan.basis_rotation
    sq = (o @ covariance_matrix(psi, rep) @ o.T) ** 2
    r, n = cartan.rank, cartan.n_positive
    roots = sq[r:, r:]
    root_total = float(roots.sum())
    # the 2 x 2 diagonal blocks of the root block, one per positive root
    same = float(np.einsum("papb->", roots.reshape(n, 2, n, 2)))
    return CartanSplit(
        cartan_block=float(sq[:r, :r].sum()),
        mixed_block=float(sq[:r, r:].sum() + sq[r:, :r].sum()),
        same_line_block=same,
        cross_line_block=root_total - same,
        total=float(sq.sum()),
    )


def root_pair_closed_form(psi, cartan) -> float:
    """Ladder-moment value of the same-line block in the Cartan gauge.

    For a state whose expectation vector lies in the Cartan span,

        same_line_block = sum_{a > 0} 8 |<E_a^2>|^2 + 2 <E_a E_-a + E_-a E_a>^2.

    The caller is responsible for the gauge (see
    ``align_expectation_to_cartan``); without it the identity fails.
    """
    psi = _validate_state(psi, cartan.weight_basis.shape[0])
    a = cartan.raising_ops @ psi  # rows E_a psi
    b = psi.conj() @ cartan.raising_ops  # rows psi^dag E_a = (E_a^dag psi)^dag
    e2 = np.vecdot(b.conj(), a)  # <E_a^2> = sum b a
    anti = np.vecdot(a, a).real + np.vecdot(b, b).real  # <E_a E_-a + E_-a E_a>
    return float(8.0 * np.vdot(e2, e2).real + 2.0 * anti @ anti)
