"""Hermitian matrix representations of compact semisimple Lie algebras.

Basis convention used throughout the package: K Hermitian generators
X_1..X_K acting on a d-dimensional Hilbert space, trace-orthogonal with a
uniform norm

    tr(X_i X_j) = lam * delta_ij,

and closed under commutation,

    [X_i, X_j] = 1j * sum_k f[i, j, k] X_k,

with real, totally antisymmetric structure constants f.  For an
irreducible representation the sum of squared generators is a multiple of
the identity (the quadratic invariant), and the double-commutator sum
sum_j [X_j, [X_j, X_i]] acts as a fixed multiple of every generator (the
adjoint-representation invariant).  sum_j X_j^2 = c I is what the
measurement step needs; a direct sum of irreps with one common c passes
it, and ``cartan_decompose`` rejects such sums.

``algebra_from_generators`` is the one place a generator set is checked
and its constants derived, in one pass over the K(K+1)/2 distinct products
X_i X_j, i <= j (for Hermitian generators X_j X_i = (X_i X_j)^dagger):
their traces are the gram matrix; for i < j, P - P^dagger of P = X_i X_j
is the commutator [X_i, X_j], and these give f and the closure check; the
squares sum to the quadratic invariant c; and the commutators [X_1, X_j]
cross-check the adjoint invariant c_adj against the contraction of f.  The builders for
the spin-j representations of su(2) and for the fundamental
representation of su(N) in a generalized Gell-Mann basis go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "AlgebraRep",
    "algebra_from_generators",
    "build_su2_irrep",
    "build_sun_fundamental",
]

# Construction-time tolerances.  Hermiticity and gram uniformity are
# properties of how the input matrices were written down, so they are held
# to near machine precision; closure and the invariant proportionality
# checks involve O(K^2) floating-point contractions and get more slack.
HERMITICITY_TOL = 1e-12
GRAM_TOL = 1e-10
ANTISYMMETRY_TOL = 1e-10
CLOSURE_TOL = 1e-8
PROPORTIONALITY_TOL = 1e-8
ADJOINT_CONSISTENCY_TOL = 1e-8


def _max_abs(a):
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _norm(x):
    """Euclidean norm of a 1-d real or complex vector, as a Python float."""
    return math.sqrt(np.vdot(x, x).real)


@cache
def _key_sequence():
    """The seed-sequence type that ``_philox`` hands Philox, defined on first
    use so that importing the package does not import numpy.random."""

    class KeySequence(np.random.bit_generator.ISeedSequence):
        """A seed sequence whose state is its fixed Philox key."""

        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return KeySequence


def _philox(key):
    """np.random.Generator on Philox with the 128-bit key given as two
    uint64 words: the draws of Philox(key=key), without the OS entropy
    that Philox(key=...) reads for a seed sequence it then discards."""
    key = np.array(key, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_sequence()(key)))


def _coefficients(name, x, k):
    """x as a (k,) float array; ValueError naming it unless it holds k
    finite real numbers (a complex dtype, or an object array holding a
    complex number, is refused, not cut to its real part)."""
    arr = np.asarray(x)
    if arr.dtype == object:  # its entries pick the dtype
        arr = np.asarray(arr.tolist())
    if np.iscomplexobj(arr):
        raise ValueError(f"{name} must be real, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if arr.shape != (k,):
        raise ValueError(f"{name} must have shape ({k},), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


def _combination(coeff, mats):
    """sum_k coeff[..., k] mats[k] as one (..., K) @ (K, m) product."""
    return (coeff @ mats.reshape(len(mats), -1)).reshape(coeff.shape[:-1] + mats.shape[1:])


@dataclass(frozen=True)
class AlgebraRep:
    """A Hermitian representation of a compact semisimple algebra with
    sum_j X_j^2 = c I: an irrep, or a direct sum of irreps with one common c.

    Attributes
    ----------
    generators : (K, d, d) complex ndarray
        Hermitian generators X_i, trace-orthogonal with uniform norm.
    structure_constants : (K, K, K) real ndarray
        f[i, j, k] with [X_i, X_j] = 1j * sum_k f[i, j, k] X_k.
    casimir_eigenvalue : float
        Scalar c with sum_j X_j^2 = c * I.
    adjoint_casimir : float
        Scalar c_adj with sum_j [X_j, [X_j, X_i]] = c_adj * X_i.
    normalization : float
        The uniform trace norm lam = tr(X_i^2).
    moment_stack : (2d, 2K d) real ndarray
        ``_real_form`` of X_1^T .. X_K^T side by side: for row states psi
        with contiguous rows, psi.view(float) @ moment_stack holds every
        X_k psi as interleaved real and imaginary parts
        (``dynamics._generator_action``).
    """

    generators: np.ndarray
    structure_constants: np.ndarray
    casimir_eigenvalue: float
    adjoint_casimir: float
    normalization: float
    moment_stack: np.ndarray

    @property
    def dim_algebra(self) -> int:
        return self.generators.shape[0]

    @property
    def dim_hilbert(self) -> int:
        return self.generators.shape[1]

    def __repr__(self):
        return (
            f"AlgebraRep(K={self.dim_algebra}, d={self.dim_hilbert}, "
            f"lam={self.normalization:.6g}, c={self.casimir_eigenvalue:.6g}, "
            f"c_adj={self.adjoint_casimir:.6g})"
        )


def _real_form(m):
    """The real (2a, 2b) matrix R acting like the complex (a, b) matrix m on
    interleaved rows: (psi @ m).view(float) == psi.view(float) @ R.  Each
    complex entry x + iy becomes the 2x2 block [[x, y], [-y, x]]."""
    a, b = m.shape
    r = np.empty((a, 2, b, 2))
    r[:, 0, :, 0] = r[:, 1, :, 1] = m.real
    r[:, 0, :, 1] = m.imag
    r[:, 1, :, 0] = -m.imag
    return r.reshape(2 * a, 2 * b)


def unitary_exp(h, t=1.0):
    """exp(1j * t * h) for a Hermitian matrix h, exact up to rounding.

    Computed from one eigendecomposition h = V diag(w) V^dagger as
    (V * exp(1j t w)) @ V^dagger, so the result is unitary.  t may be an
    array of times; the result then stacks one (d, d) matrix per entry.
    """
    w, v = np.linalg.eigh(h)
    phase = np.exp(1j * np.asarray(t, dtype=float)[..., None, None] * w)
    return (v * phase) @ v.conj().T


def _apply_unitary_exp(h, psi, t=1.0):
    """exp(1j * t * h) psi for a Hermitian matrix h, a vector psi and a
    scalar t: ``unitary_exp``'s one eigendecomposition h = V diag(w)
    V^dagger applied as V (exp(1j t w) * V^dagger psi), without forming
    the (d, d) unitary."""
    w, v = np.linalg.eigh(h)
    return v.dot(np.exp(1j * t * w) * v.conj().T.dot(psi))


def _uniform_norm(gram):
    """Extract lam from the gram matrix, insisting on uniform diagonal."""
    diag = np.diag(gram)
    lam = float(np.mean(diag))
    scale = max(abs(lam), 1.0)
    off = _max_abs(gram - lam * np.eye(gram.shape[0]))
    if off > GRAM_TOL * scale:
        raise ValueError(
            "generators are not trace-orthogonal with uniform norm: "
            f"max |tr(X_i X_j) - lam d_ij| = {off:.3e} (lam = {lam:.6g})"
        )
    if lam <= 0:
        raise ValueError(f"generator trace norm must be positive, got {lam:.6g}")
    return lam


def _structure_constants(gens, comm, lam):
    """f[i, j, k] = -1j tr([X_i, X_j] X_k) / lam from the stacked
    commutators comm[p] = [X_i, X_j] of the pairs i < j in
    ``np.triu_indices(K, 1)`` order, checked real and closing; f[j, i] =
    -f[i, j] is filled in and the whole f checked totally antisymmetric."""
    K, d = gens.shape[0], gens.shape[1]
    # one (K(K-1)/2, d^2) @ (d^2, K) product
    gens_t = gens.transpose(0, 2, 1).reshape(K, d * d)
    f_complex = comm.reshape(-1, d * d) @ gens_t.T
    f_complex *= -1j / lam

    imag_resid = _max_abs(f_complex.imag)
    scale = max(_max_abs(f_complex), 1.0)
    if imag_resid > 1e-11 * scale:
        raise ValueError(
            f"structure constants are not real: max imaginary part {imag_resid:.3e}"
        )
    pairs = f_complex.real

    # Closure: the commutators must be reproduced by the extracted constants,
    # otherwise the generator span is not a closed algebra.
    closure_resid = _closure_residual(pairs, gens, comm)
    comm_scale = max(_max_abs(comm), 1.0)
    if closure_resid > CLOSURE_TOL * comm_scale:
        raise ValueError(
            "generators do not span a closed algebra: commutator residual "
            f"{closure_resid:.3e} exceeds {CLOSURE_TOL:.0e} of scale {comm_scale:.3g}"
        )

    iu, ju = np.triu_indices(K, 1)
    f = np.zeros((K, K, K))
    f[iu, ju] = pairs
    f[ju, iu] = 0.0 - pairs  # an exact negation with no -0.0, as P^dagger - P gives
    anti = max(
        _max_abs(f + f.transpose(1, 0, 2)),
        _max_abs(f + f.transpose(0, 2, 1)),
    )
    if anti > ANTISYMMETRY_TOL * scale:
        raise ValueError(
            f"structure constants are not totally antisymmetric: residual {anti:.3e}"
        )
    return f


def _closure_residual(f, gens, comm):
    """max |[X_i, X_j] - 1j sum_k f[i, j, k] X_k| over the pairs (i, j) that
    f and comm stack alike: f holds K constants per pair ((K, K, K), or
    (pairs, K)) and comm the pairs' (d, d) commutators.  The sum is one real
    (pairs, K) @ (K, 2 d^2) product on the generators' real view, read back
    as complex, and the residual is formed in that product's buffer."""
    K, d = gens.shape[0], gens.shape[1]
    recon = (f.reshape(-1, K) @ gens.view(np.float64).reshape(K, 2 * d * d)).view(complex)
    recon *= 1j
    return _max_abs(np.subtract(comm.reshape(recon.shape), recon, out=recon))


def _casimirs(squares, comm, f, lam):
    """(c, c_adj) with sum_j X_j^2 = c I and sum_j [X_j, [X_j, X_i]] =
    c_adj X_i, from the stacked squares X_j^2, the commutators comm of
    ``_structure_constants`` and f; ValueError when either proportionality
    fails."""
    K, d = squares.shape[0], squares.shape[2]
    cas = np.einsum("jab->ab", squares)
    c = float(np.real(np.trace(cas)) / d)
    resid = _max_abs(cas - c * np.eye(d))
    if resid > PROPORTIONALITY_TOL * max(abs(c), 1.0):
        raise ValueError(
            "sum of squared generators is not proportional to the identity "
            f"(residual {resid:.3e}): representation not irreducible"
        )

    # The double-commutator scalar also equals the structure-constant
    # contraction sum_{kl} f[i,k,l] f[j,k,l] = c_adj d_ij, one GEMM; both
    # routes are computed and must agree.
    flat = f.reshape(K, K * K)
    contraction = flat @ flat.T
    c_adj = float(np.trace(contraction) / K)
    resid = _max_abs(contraction - c_adj * np.eye(K))
    if resid > ADJOINT_CONSISTENCY_TOL * max(abs(c_adj), 1.0):
        raise ValueError(
            f"adjoint invariant is not isotropic: residual {resid:.3e}"
        )

    # The double-commutator route on X_1: for Hermitian X_j,
    # tr(sum_j [X_j, [X_j, X_1]] X_1) = sum_j |[X_1, X_j]|_F^2, with the
    # commutators [X_1, X_j], j > 1, the first K - 1 pairs of comm.
    inner = comm[: K - 1]
    direct = float(np.vdot(inner, inner).real / lam)
    if abs(direct - c_adj) > ADJOINT_CONSISTENCY_TOL * max(abs(c_adj), 1.0):
        raise ValueError(
            "adjoint invariant mismatch between double-commutator "
            f"({direct:.12g}) and structure-constant contraction ({c_adj:.12g})"
        )
    return c, c_adj


def algebra_from_generators(generators) -> AlgebraRep:
    """Validate a Hermitian generator set and package it as an AlgebraRep.

    The generators must be finite, Hermitian to 1e-12, trace-orthogonal
    with a uniform positive norm, closed under commutation, and satisfy
    sum_j X_j^2 = c I, which direct sums of irreps with one common c pass.
    Everything is read from the K(K+1)/2 distinct products, the squares
    X_i^2 and the products P = X_i X_j for i < j (X_j X_i = P^dagger): the
    gram matrix from their traces, the commutators P - P^dagger (which give
    f and the closure check), the quadratic invariant sum_j X_j^2, and the
    commutators [X_1, X_j] of the double-commutator cross-check of c_adj.
    """
    gens = np.asarray(generators, dtype=complex)
    if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
        raise ValueError(f"expected shape (K, d, d), got {gens.shape}")
    if gens.shape[0] < 1:
        raise ValueError("need at least one generator")
    if not np.isfinite(gens).all():
        raise ValueError("generators must be finite")
    resid = _max_abs(gens - np.conj(np.swapaxes(gens, -1, -2)))
    if resid > HERMITICITY_TOL:
        raise ValueError(
            f"generators are not Hermitian: max |X - X^dag| = {resid:.3e} "
            f"exceeds {HERMITICITY_TOL:.0e}"
        )
    gens = np.ascontiguousarray(gens)
    K, d = gens.shape[:2]
    iu, ju = np.triu_indices(K, 1)
    squares, prod = gens @ gens, gens[iu] @ gens[ju]
    gram = np.diag(np.einsum("iaa->i", squares).real)
    gram[iu, ju] = gram[ju, iu] = np.einsum("paa->p", prod).real
    lam = _uniform_norm(gram)
    comm = prod - prod.conj().swapaxes(1, 2)
    f = _structure_constants(gens, comm, lam)
    c, c_adj = _casimirs(squares, comm, f, lam)

    stack = _real_form(gens.transpose(2, 0, 1).reshape(d, -1))
    for arr in (gens, f, stack):
        arr.flags.writeable = False
    return AlgebraRep(
        generators=gens,
        structure_constants=f,
        casimir_eigenvalue=c,
        adjoint_casimir=c_adj,
        normalization=lam,
        moment_stack=stack,
    )


def build_su2_irrep(two_j: int) -> AlgebraRep:
    """Spin-j representation of su(2) in the standard angular-momentum basis.

    Parameters
    ----------
    two_j : int
        Twice the spin, a positive integer (two_j = 2 means spin 1).

    Returns
    -------
    AlgebraRep
        Generators (J_x, J_y, J_z) on a (two_j + 1)-dimensional space, with
        J_z diagonal and eigenvalues j, j-1, ..., -j.  The uniform trace
        norm is j(j+1)(2j+1)/3 and the quadratic invariant is j(j+1).
    """
    if not isinstance(two_j, (int, np.integer)):
        raise ValueError(f"two_j must be an integer, got {two_j!r}")
    if two_j < 1:
        raise ValueError(f"two_j must be >= 1, got {two_j}")
    j = two_j / 2.0
    m = np.arange(two_j, -two_j - 1, -2) / 2.0
    d = two_j + 1

    jz = np.diag(m).astype(complex)
    jp = np.zeros((d, d), dtype=complex)
    # Raising connects m_k -> m_k + 1, i.e. column k to row k-1 in the
    # descending-m ordering.
    for k in range(1, d):
        jp[k - 1, k] = np.sqrt((j - m[k]) * (j + m[k] + 1.0))
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    return algebra_from_generators(np.stack([jx, jy, jz]))


def build_sun_fundamental(n: int) -> AlgebraRep:
    """Fundamental representation of su(N) in a generalized Gell-Mann basis.

    Parameters
    ----------
    n : int
        Matrix dimension N >= 2.

    Returns
    -------
    AlgebraRep
        N^2 - 1 generators normalized to tr(X_i X_j) = delta_ij / 2.  The
        ordering walks the dimension shells k = 2..N: for each k first the
        symmetric and antisymmetric pair generators (j, k) for j < k, then
        the diagonal generator of shell k.  For N = 2 this is (sigma_x,
        sigma_y, sigma_z)/2 and for N = 3 the Gell-Mann matrices over 2 in
        their standard order.
    """
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    gens = []
    for k in range(2, n + 1):
        for j in range(1, k):
            sym = np.zeros((n, n), dtype=complex)
            sym[j - 1, k - 1] = sym[k - 1, j - 1] = 0.5
            gens.append(sym)
            anti = np.zeros((n, n), dtype=complex)
            anti[j - 1, k - 1] = -0.5j
            anti[k - 1, j - 1] = 0.5j
            gens.append(anti)
        diag = np.zeros((n, n), dtype=complex)
        coeff = np.sqrt(1.0 / (2.0 * k * (k - 1)))
        for j in range(k - 1):
            diag[j, j] = coeff
        diag[k - 1, k - 1] = -coeff * (k - 1)
        gens.append(diag)
    return algebra_from_generators(np.stack(gens))
