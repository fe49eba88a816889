"""Stochastic pure-state dynamics of weak simultaneous generator measurement,
and the matching Lindblad ensemble evolution.

Pure-state unraveling (Ito form, per step of size dt):

    dpsi = [ -1j H dt
             - gamma sum_k (X_k - <X_k>)^2 dt
             + sum_k (X_k - <X_k>) dxi_k ] psi,      dxi_k = sqrt(2 gamma dt) z_k,

with independent standard normals z_k per channel per step, followed by
renormalization.  H = sum_k h_k X_k lies in the generator span and every
entry point takes it as its K real coefficients h.  The integrator is
split-step: the Hamiltonian flow is applied as the exact propagator
exp(-1j H dt), built once per run, and the measurement terms as an
Euler-Maruyama update evaluated at the propagated state.  The splitting
keeps purely Hamiltonian motion exact (the uncertainty functional is then
conserved to rounding, not to O(dt)), while the measurement update is the
standard order-1/2 strong scheme.

The step, the records, the theorem scan and ``observables`` share one
moment formula: states are read as interleaved real and imaginary parts,
and one real product with the real generator stack
``AlgebraRep.moment_stack`` gives every X_k psi in the same layout, so
<X_k> and the rest are real contractions.  Batches go through
``_generator_action`` and ``_moments``; one state is observed as a (2d,)
row by ``observables``, with ``ndarray.dot``.  The step keeps its
batch in that real form from one record to the next, needs at most <X_k>
and the update sum_k coef_k X_k psi + keep psi, and takes C = sum_k X_k^2 as
the scalar c.  One factory, ``_stepper``, builds every step once per
run or block, with its constants, propagator and route bound, and
returns step(pf, xi, dest=None), which divides the normalized states
into dest (a record's buffer slot) or in place.  It picks one of three
routes from n, K and d: one state (a trajectory, ``snlse_step``) as a
(2d,) row through the stacked X_k psi, with ``ndarray.dot``; a batch of
n >= 2 on the defining su(d) (K = d^2 - 1) by its completeness relation,
under which every pure state is coherent and the update needs only the
d x d operator B = sum_k dxi_k X_k applied to psi, with no <X_k>; and a
batch on every other irrep through the stacked X_k psi of
``_generator_action`` (n K 2d doubles).  Records
are buffered as complex states and observed DEFAULT_BLOCK at a time from
``_moments``' real rows, X_k psi and <X_k> by one stateless function per
moment: ``_second``, ``_purity``, ``_centred`` (U), ``_tnorm`` (the
squared covariance norm T) and ``_drift``.

Ensemble counterpart:

    drho/dt = -1j [H, rho] - gamma sum_k [X_k, [X_k, rho]],

solved exactly at every record time from one eigendecomposition of H and
one of each block of the Hermitian dissipator, graded by the eigenvalue
differences of one fixed element of the algebra, so no (d^2, d^2) matrix
is formed and d has no cap.  Its unraveling is the ensemble: the mean
projector of ``ensemble_average`` tracks it, and one trajectory
(``simulate_trajectory``) is an ensemble of one.

Randomness is counter-based (Philox): ``stream_rng(seed, stream)`` keys
Philox with the two 64-bit words [seed mod 2^64, stream mod 2^64], seed and
stream integral numbers, and draws no OS entropy.  Stream 0 feeds
trajectory noise, stream 1 initial-state sampling, stream 2 scan sampling.
Trajectory i of an ensemble uses seed + i on stream 0, so any subset of
trajectories is reproducible in isolation.  Ensembles step blocks of
DEFAULT_BLOCK (256) trajectories, each trajectory's noise drawn in order,
in chunks of at most DEFAULT_BLOCK steps sized so one block's noise holds
at most 2^19 doubles (4 MiB); the numbers are those of one draw of the
whole history.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass
from functools import partial

import numpy as np

from .algebra import AlgebraRep, _coefficients, _combination, _max_abs, _philox, _real_form, unitary_exp

__all__ = [
    "NoiseConfig",
    "ensemble_average",
    "ensemble_observables",
    "haar_state",
    "haar_states",
    "lindblad_evolve",
    "lindblad_expm_evolve",
    "simulate_trajectory",
    "snlse_step",
    "stream_rng",
    "validate_density",
]

NOISE_STREAM = 0
INIT_STREAM = 1
SCAN_STREAM = 2

STABILITY_LIMIT = 0.01  # max allowed gamma * dt
DEFAULT_BLOCK = 256

_UINT64_MASK = (1 << 64) - 1
_GRADING_KEY = 0x646973  # fixed Philox key: the flow's grading is deterministic


def _integral(name, value):
    """value as a Python int; ValueError naming the field if it is not a
    finite integral number."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _count(name, value):
    """``_integral`` of value, which must also be at least 1."""
    count = _integral(name, value)
    if count < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return count


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for (seed, stream); independent across both.
    seed and stream may be any integral numbers and are read modulo 2^64."""
    seed, stream = _integral("seed", seed), _integral("stream", stream)
    return _philox([seed & _UINT64_MASK, stream & _UINT64_MASK])


def haar_states(dim: int, n: int, seed: int, stream: int = INIT_STREAM) -> np.ndarray:
    """n Haar-random state vectors, rows of an (n, dim) array.

    Drawn as normalized i.i.d. complex Gaussians on `stream` of `seed`,
    by default the initial-state stream.  dim and n may be given as any
    integral numbers of at least 1.
    """
    dim, n = _count("dim", dim), _count("n", n)
    rng = stream_rng(seed, stream)
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def haar_state(dim: int, seed: int) -> np.ndarray:
    """One Haar-random state vector."""
    return haar_states(dim, 1, seed)[0]


def scan_states(dim: int, n: int, seed: int) -> np.ndarray:
    """Haar-random states on the scan stream (kept apart from initial states)."""
    return haar_states(dim, n, seed, SCAN_STREAM)


def _hamiltonian_matrix(h, rep: AlgebraRep):
    """H = sum_k h_k X_k for h None or K real coefficients; None when h is
    None or all zero, so there is no H term.

    H is Hermitian by construction; its projection back onto the generator
    basis is verified so a corrupted generator set is caught here rather
    than mid-simulation.
    """
    if h is None:
        return None
    coeff = _coefficients("Hamiltonian coefficients", h, rep.dim_algebra)
    if not np.any(coeff):
        return None
    matrix = _combination(coeff, rep.generators)
    herm = _max_abs(matrix - matrix.conj().T)
    if herm > 1e-12 * max(1.0, _max_abs(matrix)):
        raise ValueError(f"Hamiltonian is not Hermitian: residual {herm:.3e}")
    back = np.real(np.einsum("ab,kba->k", matrix, rep.generators)) / rep.normalization
    resid = _max_abs(back - coeff)
    if resid > 1e-10 * max(1.0, _max_abs(coeff)):
        raise ValueError(f"Hamiltonian does not project back onto its coefficients: {resid:.3e}")
    return matrix


def _step_propagator(h, rep, dt):
    """The ``_real_form`` of exp(-1j H dt)^T, or None without an H term:
    the prop that ``_stepper`` binds."""
    ham = _hamiltonian_matrix(h, rep)
    return None if ham is None else _real_form(unitary_exp(ham, -dt).T)


def _check_gamma(gamma):
    if not np.isfinite(gamma) or gamma < 0:
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")


def _check_dt(dt):
    if not np.isfinite(dt) or dt <= 0:
        raise ValueError(f"dt must be finite and positive, got {dt}")


def _check_stability(gamma, dt):
    if gamma * dt > STABILITY_LIMIT * (1 + 1e-12):
        raise ValueError(
            f"gamma * dt = {gamma * dt:.3g} exceeds the stability guard {STABILITY_LIMIT}"
        )


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement strength and integration grid.

    gamma >= 0, dt > 0, steps >= 1; gamma * dt <= 0.01 is enforced here
    (and therefore at every simulation entry point) as the explicit-scheme
    stability guard.  steps and seed may be given as any integral numbers
    and are stored as Python ints.
    """

    gamma: float
    dt: float
    steps: int
    seed: int

    def __post_init__(self):
        _check_gamma(self.gamma)
        _check_dt(self.dt)
        object.__setattr__(self, "steps", _count("steps", self.steps))
        object.__setattr__(self, "seed", _integral("seed", self.seed))
        _check_stability(self.gamma, self.dt)


def _validate_state(psi, dim, slack=0.0, where=""):
    """A contiguous copy of the (dim,) state psi, divided by its norm unless
    that is within slack of 1; ValueError, ending in where, if the norm is
    not finite or is off 1 by more than 1e-8.  The one state check: every
    start, lone or an ensemble's row (where names its trajectory), and every
    state an observable reads.  Scalar, as observables call it per state."""
    psi = np.array(psi, dtype=complex)
    if psi.shape != (dim,):
        raise ValueError(f"state must have shape ({dim},), got {psi.shape}")
    nrm = math.sqrt(np.vdot(psi, psi).real)
    if not abs(nrm - 1.0) <= 1e-8:  # NaN fails the test too
        if not math.isfinite(nrm):
            raise ValueError(f"state norm is not finite: |psi| = {nrm}{where}")
        raise ValueError(f"state is not normalized: |psi| = {nrm:.12g}{where}")
    if abs(nrm - 1.0) > slack:
        psi /= nrm
    return psi


def _generator_action(pf, rep):
    """(z, v) for n states given as an (n, 2d) real array pf of interleaved
    real and imaginary parts: z (n, K, 2d) holds X_k psi in the same
    layout, and v (n, K) is <X_k> = Re <psi|X_k psi>, a real dot product."""
    z = (pf @ rep.moment_stack).reshape(len(pf), rep.dim_algebra, pf.shape[1])
    return z, np.matvec(z, pf)


def _moments(psi, rep):
    """(pf, z, v) of n normalized states, the rows of an (n, d) array psi:
    pf their (n, 2d) interleaved real rows, (z, v) its ``_generator_action``.

    z holds y_k = X_k psi in that layout, in which Re <a|b> is a real dot
    product, so every moment is a real batched product:

        v_k = Re <psi|y_k>,   <C> = sum_k |y_k|^2,   P = sum_k v_k^2,
        M = 2 U U^T,   U the (K, 2d) stack of u_k = (X_k - v_k) psi,
        T = sum_kl M_kl^2 = 4 |U U^T|_F^2 = 4 |U^T U|_F^2,
        D = 2 gamma (c_adj P - T),

    each formed by one function: ``_second``, ``_purity``, ``_centred``
    (U), ``_tnorm`` and ``_drift``.  <C> = <psi|sum_k X_k^2|psi> is formed
    without C; the step, which does not read it, calls
    ``_generator_action`` alone.  For normalized states this M is
    <{X_k, X_l}> - 2 v_k v_l, which only ``covariance_matrix`` forms.
    """
    pf = np.ascontiguousarray(psi, dtype=complex).view(np.float64)
    return (pf, *_generator_action(pf, rep))


def _second(z):
    """(n,) <C> = sum_k |y_k|^2."""
    return np.einsum("nkj,nkj->n", z, z)


def _purity(v):
    """(n,) P = sum_k <X_k>^2."""
    return np.einsum("nk,nk->n", v, v)


def _centred(pf, z, v):
    """(..., K, 2d) centred u_k = (X_k - v_k) psi, of one (2d,) row or an
    (n, 2d) batch.  v_k psi is formed in one buffer and z - v_k psi is
    written over it, which keeps the bits of that formula with one stack
    beside z rather than two."""
    u = np.multiply(v[..., :, None], pf[..., None, :])
    return np.subtract(z, u, out=u)


def _tnorm(u):
    """(n,) T = sum_kl M_kl^2, from the smaller of the two Gram matrices of
    U (K x K, or 2d x 2d when K > 2d)."""
    ut = u.transpose(0, 2, 1)
    gram = u @ ut if u.shape[1] <= u.shape[2] else ut @ u
    return 4.0 * np.einsum("nkl,nkl->n", gram, gram)


def _drift(rep, gamma, purity, tnorm):
    """(n,) localization drift 2 gamma (c_adj P - T)."""
    return 2.0 * gamma * (rep.adjoint_casimir * purity - tnorm)


class _RowFault(RuntimeError):
    """A numerical check that failed on some rows of a batch; rows are
    their indices, the first of which ``_integrate`` names in its error."""

    def __init__(self, message, rows):
        super().__init__(message)
        self.rows = rows


def _observe_batch(states, rep, gamma):
    """Rows (uncertainty, purity, cov_trace_norm, drift, <X_1..X_K>) of the
    states, an (..., d) array, with moments taken DEFAULT_BLOCK states at a
    time so memory stays bounded; the quadratic-invariant expectation is
    verified against its constant on the way through."""
    flat = states.reshape(-1, states.shape[-1])
    out = np.empty((len(flat), 4 + rep.dim_algebra))
    c = rep.casimir_eigenvalue
    for lo in range(0, len(flat), DEFAULT_BLOCK):
        pf, z, v = _moments(flat[lo : lo + DEFAULT_BLOCK], rep)
        second = _second(z)
        off = np.abs(second - c) > 1e-10 * max(1.0, abs(c))
        if np.any(off):
            raise _RowFault("quadratic invariant drifted beyond 1e-10", lo + np.flatnonzero(off))
        purity, tnorm = _purity(v), _tnorm(_centred(pf, z, v))
        out[lo : lo + DEFAULT_BLOCK] = np.column_stack(
            [second - purity, purity, tnorm, _drift(rep, gamma, purity, tnorm), v]
        )
        del pf, z, v  # this block's stacks go before the next block's are formed
    return out.reshape(states.shape[:-1] + out.shape[-1:])


def _stepper(rep, gamma, dt, n, prop=None):
    """The split step for n states, with gamma dt, 1 - gamma dt c, the
    propagator prop (the ``_real_form`` of exp(-1j H dt)^T, or None) and
    the route bound once per run or block.  Returns step(pf, xi,
    dest=None), which advances pf, the states as interleaved real and
    imaginary parts, with the increments xi: exact Hamiltonian flow, then
    the Euler-Maruyama measurement update

        sum_k coef_k X_k psi + keep psi,   coef_k = 2 gamma dt v_k + dxi_k,
        keep = 1 - gamma dt c - gamma dt P - sum_k dxi_k v_k,

    since C = sum_k X_k^2 = c 1 on an irreducible representation (checked
    by ``algebra_from_generators``), then renormalization.  The route is
    fixed here by n, K and d, and no step chooses it again:

    - one state, n = 1: pf is a (2d,) row and xi (K,); ``moment_stack``
      stacks every X_k psi and gives <X_k>, and each contraction is an
      ``ndarray.dot``, the BLAS kernels of the batch gufuncs without their
      dispatch.  A blow-up raises ``_RowFault`` with rows [0];
    - the defining su(d), K = d^2 - 1, for n >= 2: d^2 - 1 trace-orthogonal
      Hermitian generators closed under commutation span su(d), so they are
      complete, sum_k X_k (x) X_k = lam (SWAP - 1 (x) 1 / d), and for a
      normalized psi sum_k v_k X_k psi = lam (1 - 1/d) psi = P psi: every
      pure state is coherent.  With c = lam (d - 1/d), the update is then
      exactly

          B psi + (1 - gamma dt lam (d - 1) - <psi|B psi>) psi,
          B = sum_k dxi_k X_k,

      with B formed as xi times the generators' (K, 2d^2) real view, one
      batched complex d x d product B psi and one real dot product;
      no <X_k> is formed;
    - every other irrep, for n >= 2: ``_generator_action`` stacks every
      X_k psi (n K 2d doubles) and gives <X_k>, and the update is coef
      contracted with the stack plus keep psi.

    The routes agree to rounding on the defining su(d).  A batch, pf
    (n, 2d) and xi (n, K), raises ``_RowFault`` naming every row whose norm
    left (0, inf).  The normalized states are divided into dest, a float
    array of pf's shape, if given, else in place, and returned.  Callers
    run the step under np.errstate(over="ignore"), so a norm that
    overflows to inf reaches the blow-up check without a warning."""
    K, d = rep.dim_algebra, rep.dim_hilbert
    gdt = gamma * dt
    base = 1.0 - gdt * rep.casimir_eigenvalue
    if n == 1:
        stack = rep.moment_stack
        divide, sqrt = np.divide, math.sqrt

        def step(pf, xi, dest=None):
            if prop is not None:
                pf = pf.dot(prop)
            z = pf.dot(stack).reshape(K, -1)
            v = z.dot(pf)
            gv = gdt * v
            coef = gv + xi
            keep = base - coef.dot(v)
            coef += gv
            out = coef.dot(z)
            out += keep * pf
            nrm2 = out.dot(out)
            if not 0.0 < nrm2 < math.inf:  # NaN fails the test too
                raise _RowFault("integration blow-up: state norm left (0, inf); reduce dt", [0])
            return divide(out, sqrt(nrm2), out=out if dest is None else dest)

        return step

    def renormalized(out, keep, pf, dest):
        out += keep[:, None] * pf
        nrm2 = np.vecdot(out, out)
        if not (nrm2.min() > 0 and nrm2.max() < np.inf):  # NaN fails the first test
            bad = np.flatnonzero(~(np.isfinite(nrm2) & (nrm2 > 0)))
            raise _RowFault("integration blow-up: state norm left (0, inf); reduce dt", bad)
        return np.divide(out, np.sqrt(nrm2)[:, None], out=out if dest is None else dest)

    if K == d * d - 1:
        basis = rep.generators.view(np.float64).reshape(K, 2 * d * d)
        base = 1.0 - gdt * rep.normalization * (d - 1)

        def step(pf, xi, dest=None):
            if prop is not None:
                pf = pf @ prop
            b = (xi @ basis).view(complex).reshape(n, d, d)
            out = np.matvec(b, pf.view(complex)).view(np.float64)
            return renormalized(out, base - np.vecdot(pf, out), pf, dest)

    else:

        def step(pf, xi, dest=None):
            if prop is not None:
                pf = pf @ prop
            z, v = _generator_action(pf, rep)
            gv = gdt * v
            coef = gv + xi
            keep = base - np.vecdot(coef, v)
            coef += gv
            return renormalized(np.vecmat(coef, z), keep, pf, dest)

    return step


def snlse_step(psi, h, rep: AlgebraRep, gamma: float, dt: float, increments):
    """Advance one state by one step given realized noise increments.

    Parameters
    ----------
    psi : (d,) complex array_like, normalized.
    h : (K,) real coefficients of H = sum_k h_k X_k, or None for free
        measurement.
    gamma, dt : measurement strength and step; gamma * dt <= 0.01.
    increments : (K,) realized dxi_k for this step (variance 2 gamma dt
        each under the nominal law; any values are accepted).

    Returns
    -------
    (d,) complex ndarray, normalized.

    A psi whose norm is off 1 by at most 2 d machine epsilons, the rounding
    of a normalized state's norm, is stepped as given rather than divided
    by that norm once more.  So chaining snlse_step from psi0 / |psi0|,
    the initial state of a trajectory as ``simulate_trajectory`` normalizes
    it, over that trajectory's increments, sqrt(2 gamma dt) times the
    standard normals of its noise stream in order, reproduces the states
    it steps through bit for bit.

    Each call builds and checks exp(-1j H dt) when h is given, so chaining
    it with a Hamiltonian costs about three times chaining it without (a
    2,100-step spin-1 replay: 0.35 s against 0.12 s).  For many steps with
    a Hamiltonian, use ``simulate_trajectory`` or ``ensemble_observables``,
    which build the propagator once per run.
    """
    _check_gamma(gamma)
    _check_dt(dt)
    _check_stability(gamma, dt)
    d = rep.dim_hilbert
    psi = _validate_state(psi, d, slack=2 * d * math.ulp(1.0))
    increments = _coefficients("increments", increments, rep.dim_algebra)
    prop = _step_propagator(h, rep, dt)
    with np.errstate(over="ignore"):
        out = _stepper(rep, gamma, dt, 1, prop)(psi.view(np.float64), increments)
    return out.view(complex)


def _record_grid(steps, stride, dt):
    """(stride as an int, the record times k * stride * dt)."""
    steps, stride = _count("steps", steps), _count("record stride", stride)
    if steps % stride != 0:
        raise ValueError(f"record stride {stride} must divide steps {steps}")
    return stride, np.arange(steps // stride + 1) * (stride * dt)


def simulate_trajectory(initial, h, rep: AlgebraRep, cfg: NoiseConfig, record_stride: int = 1):
    """Integrate one measurement trajectory and record its functionals.

    Returns (times, rows): times are k * stride * dt for k = 0..n_rec-1
    (the initial state is row zero), and rows is the (n_rec, 4 + K) table
    of the one-trajectory ``ensemble_observables``, not copied: uncertainty,
    purity, squared covariance norm, drift, then the K generator
    expectations.  The trajectory is a deterministic function of (initial,
    h, rep, cfg.seed): noise comes from the Philox stream (cfg.seed, stream
    0).  Its states, up to a global phase, are the projectors of the
    one-trajectory ``ensemble_average``.
    """
    times, (rows,) = ensemble_observables(initial, h, rep, cfg, 1, record_stride)
    return times, rows


def _integrate(batch, prop, rep, cfg, lo, record_stride, record):
    """Evolve the rows of batch, an (n, d) complex array with contiguous
    rows, n <= DEFAULT_BLOCK, as trajectories lo, lo + 1, ..; trajectory i
    draws its noise from the Philox stream (cfg.seed + i, stream 0), in
    order, a chunk of at most DEFAULT_BLOCK steps at a time into one reused
    (n, chunk, K) slab of at most max(2^19, n K) doubles, so a block holds
    no noise more than DEFAULT_BLOCK steps ahead of the step that reads it;
    the chunking changes no number.  One loop runs the step ``_stepper``
    builds once per block for n states with prop (the ``_real_form`` of
    exp(-1j H dt)^T, or None), on the batch's (n, 2d) real view, or, when
    n = 1, on its (2d,) row and (K,) increments, squeezed once before the
    loop; all under one np.errstate(over="ignore"), so an overflowing norm
    reaches the step's blow-up check silently.  The states
    of each record time (0 is the initial batch) go to their slot of a
    complex buffer of DEFAULT_BLOCK // n record times: the initial states
    are copied there through a float view, and a record step divides its
    state straight into its slot, which is then the state the next step
    reads.  record(k0, states) gets each full buffer, and the last, as the
    (m, n, d) states of record times k0 .. k0 + m - 1, to be read before it
    returns: the buffer is written over afterwards.  A ``_RowFault`` of the
    step or of record is raised again naming its step or record time,
    trajectory and seed.
    """
    n, K = len(batch), rep.dim_algebra
    amp = np.sqrt(2.0 * cfg.gamma * cfg.dt)
    rngs = [stream_rng(cfg.seed + lo + i, NOISE_STREAM) for i in range(n)]
    n_rec = cfg.steps // record_stride + 1
    buf = np.empty((min(n_rec, DEFAULT_BLOCK // n),) + batch.shape, dtype=complex)
    buf_f = buf.view(np.float64)

    def located(err, where, first):
        r = int(err.rows[0])
        i = lo + r % n
        return RuntimeError(f"{err} ({where} {first + r // n}, trajectory {i}, seed {cfg.seed + i})")

    def filled(j, k):
        """Slot j now holds record time k: hand record the buffer if that
        is its last slot or the last record time."""
        if j == len(buf) - 1 or k == n_rec - 1:
            try:
                record(k - j, buf[: j + 1])
            except _RowFault as err:
                raise located(err, "record", k - j) from None

    pf = batch.view(np.float64)
    buf_f[0] = pf
    filled(0, 0)
    time_chunk = max(1, min(cfg.steps, DEFAULT_BLOCK, (1 << 19) // (n * K)))
    slab = np.empty((n, time_chunk, K))  # reused by every chunk of steps
    advance = _stepper(rep, cfg.gamma, cfg.dt, n, prop)
    if n == 1:  # one state steps as its (2d,) row
        pf, slots, rows = pf[0], list(buf_f[:, 0]), slab[0]
    else:
        slots, rows = list(buf_f), slab.swapaxes(0, 1)
    with np.errstate(over="ignore"):
        try:
            for s in range(0, cfg.steps, time_chunk):
                span = min(time_chunk, cfg.steps - s)
                for i, rng in enumerate(rngs):
                    rng.standard_normal((span, K), out=slab[i, :span])
                slab[:, :span] *= amp
                for step, xi in enumerate(rows[:span], s + 1):
                    if step % record_stride:
                        pf = advance(pf, xi)
                    else:
                        k = step // record_stride
                        j = k % len(buf)
                        pf = advance(pf, xi, slots[j])
                        filled(j, k)
        except _RowFault as err:  # filled raises a record's fault located already
            raise located(err, "step", step) from None


def _fork_block(run_block, lo):
    """Start run_block(lo) in a forked child; return its pid and the read
    end of a pipe bringing back the pickled (True, result) or (False, error)."""
    rd, wr = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child, which never returns
        try:
            try:
                out = (True, run_block(lo))
            except BaseException as err:  # raised again in the caller
                out = (False, err)
            with os.fdopen(wr, "wb") as fh:
                pickle.dump(out, fh, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(wr)
    return pid, os.fdopen(rd, "rb")


def _in_block_order(run_block, starts):
    """Yield run_block(lo) for each block start lo, in block order, in
    rounds of n = min(GCSLOC_THREADS, number of blocks) blocks (n = 1
    without os.fork).  A round forks a child for each block but its first,
    runs the first in the calling process (blocks 0, n, 2n, ..), then reads
    the children in block order, raising a child's error as it is read.  On
    every way out of a round its children are reaped, unread ones killed."""
    raw = os.environ.get("GCSLOC_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as err:
        raise ValueError(f"GCSLOC_THREADS must be an integer, got {raw!r}") from err
    n = min(_count("GCSLOC_THREADS", n), len(starts) if hasattr(os, "fork") else 1)
    for r in range(0, len(starts), n):
        children = []
        try:
            for lo in starts[r + 1 : r + n]:
                children.append(_fork_block(run_block, lo))
            yield run_block(starts[r])
            for pid, fh in children:
                with fh:
                    try:
                        ok, value = pickle.load(fh)
                    except EOFError:  # the child died without a word, e.g. killed for memory
                        ok, value = False, RuntimeError(f"block process {pid} ended without a result")
                if not ok:
                    raise value
                yield value
        finally:
            for pid, fh in children:
                if not fh.closed:  # not read
                    import signal  # here, off the import path: it costs about 0.6 ms
                    fh.close()
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_ensemble(initial, h, rep, cfg, n_traj, record_stride, projector):
    """Integrate n_traj trajectories in blocks of DEFAULT_BLOCK and collect
    the mean |psi><psi| if projector is set, else the per-trajectory
    ``_observe_batch`` rows."""
    n_traj, block, d = _count("n_traj", n_traj), DEFAULT_BLOCK, rep.dim_hilbert
    initial = np.asarray(initial, dtype=complex)
    if initial.ndim == 1:
        initials = np.tile(_validate_state(initial, d), (n_traj, 1))
    elif initial.shape == (n_traj, d):
        initials = np.array(
            [_validate_state(row, d, where=f" (trajectory {i})") for i, row in enumerate(initial)]
        )
    else:
        raise ValueError(f"per-trajectory initials must have shape ({n_traj}, {d}), got {initial.shape}")
    prop = _step_propagator(h, rep, cfg.dt)
    record_stride, times = _record_grid(cfg.steps, record_stride, cfg.dt)
    n_rec = len(times)
    if projector:
        total = np.zeros((n_rec, d, d), dtype=complex)

        def observe(part, k0, states):
            part[k0 : k0 + len(states)] += np.einsum("mna,mnb->mab", states, states.conj())

    else:
        rows = np.empty((n_traj, n_rec, 4 + rep.dim_algebra))

        def observe(part, k0, states):
            part[:, k0 : k0 + len(states)] = _observe_batch(states, rep, cfg.gamma).transpose(1, 0, 2)

    def run_block(lo):
        """The block's sum of projectors at the record times, or its rows slab."""
        part = np.zeros_like(total) if projector else rows[lo : lo + block]
        batch = initials[lo : lo + block].copy()
        _integrate(batch, prop, rep, cfg, lo, record_stride, partial(observe, part))
        return part

    for b, part in enumerate(_in_block_order(run_block, range(0, n_traj, block))):
        if projector:
            total += part  # block sums added in block order, so deterministic
        elif part.base is not rows:  # block b's slab, filled in a forked child
            rows[b * block : (b + 1) * block] = part
    return times, (total / n_traj if projector else rows)


def ensemble_average(
    initial,
    h,
    rep: AlgebraRep,
    cfg: NoiseConfig,
    n_traj: int,
    record_stride: int = 1,
):
    """Mean projector over n_traj independent trajectories.

    Trajectory i uses seed cfg.seed + i.  Returns (times, rho) with rho of
    shape (n_rec, d, d); each row is Hermitian with unit trace by
    construction.  Blocks of DEFAULT_BLOCK (256) trajectories are
    integrated together, GCSLOC_THREADS at once in as many processes (see
    ``_in_block_order``), and reduced in fixed order, so the result does
    not depend on that count."""
    return _run_ensemble(initial, h, rep, cfg, n_traj, record_stride, True)


def ensemble_observables(
    initial,
    h,
    rep: AlgebraRep,
    cfg: NoiseConfig,
    n_traj: int,
    record_stride: int = 1,
):
    """Per-trajectory localization functionals at the record times.

    Returns (times, rows) with rows of shape (n_traj, n_rec, 4 + K):
    uncertainty, purity, squared covariance norm, drift, then the K
    generator expectations, ``rows[..., 4:]``, whose means and standard
    errors across trajectories are the unraveling statistics.  `initial`
    may be one state vector or an (n_traj, d) array of per-trajectory
    starts; trajectory i draws noise from seed cfg.seed + i either way, and
    blocks of DEFAULT_BLOCK (256) trajectories run as in ``ensemble_average``.
    Every start takes the one state check: a lone start once, then copied
    to every trajectory; per-trajectory starts row by row, and the error
    names the first trajectory whose start fails.
    """
    return _run_ensemble(initial, h, rep, cfg, n_traj, record_stride, False)


def validate_density(rho, dim=None):
    """Check a density matrix: finite, Hermitian and unit trace to 1e-10, no
    eigenvalue below -1e-8."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise ValueError(f"density matrix must be {dim} x {dim}, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix entries must be finite")
    herm = _max_abs(rho - rho.conj().T)
    if herm > 1e-10:
        raise ValueError(f"density matrix not Hermitian: residual {herm:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"density matrix trace {tr:.12g} != 1")
    low = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    if low < -1e-8:
        raise ValueError(f"density matrix negativity {low:.3e} below -1e-08")
    return rho


def _checked_flow(out, rho):
    """Symmetrize out, the flow of the density matrix rho to the next
    record, and check that its trace moved by at most 1e-12 and its
    eigenvalues stay above -1e-6."""
    out = 0.5 * (out + out.conj().T)
    tr_drift = abs(complex(np.trace(out)) - complex(np.trace(rho)))
    if tr_drift > 1e-12:
        raise RuntimeError(f"trace drifted by {tr_drift:.3e} between records")
    low = float(np.min(np.linalg.eigvalsh(out)))
    if low < -1e-6:
        raise RuntimeError(f"density matrix negativity {low:.3e} between records: positivity lost")
    return out


def lindblad_evolve(
    rho0, h, rep: AlgebraRep, gamma: float, dt: float, steps: int, record_stride: int = 1
):
    """Exact master-equation flow sampled on the uniform record grid
    k * record_stride * dt, k = 0..steps // record_stride.

    Returns (times, rhos) with rhos of shape (n_rec, d, d), row 0 the
    initial matrix: ``lindblad_expm_evolve`` at the grid times.
    """
    _check_dt(dt)
    _, times = _record_grid(steps, record_stride, dt)
    return times, lindblad_expm_evolve(rho0, h, rep, gamma, times)


def lindblad_expm_evolve(rho0, h, rep: AlgebraRep, gamma: float, times):
    """Exact master-equation flow rho(t) = expm(L t) rho0 at the given
    finite nonnegative times, returned in their given order.

    Because the generators are trace-orthonormal (``AlgebraRep``), sum_k
    X_k (x) X_k is invariant under the adjoint action of the group, so the
    dissipator D rho = -gamma sum_k [X_k, [X_k, rho]] = 2 gamma sum_k X_k
    rho X_k - 2 gamma c rho commutes with ad A for every A in the algebra,
    and with conjugation by U(t) = exp(-1j H t) for any H in the generator
    span (h holds its K real coefficients).  So rho(t) = U(t) expm(D t)
    (rho0) U(t)^dagger exactly, with U from one ``eigh`` of H.

    For expm(D t), A = sum_k r_k X_k, r drawn from the fixed key
    _GRADING_KEY, has eigenvalues w and eigenvectors W; in the W basis the
    span of {|a><b| : w_a - w_b = mu} is D-invariant, so D is block
    diagonal there.  The d^2 differences are sorted and cut only at gaps
    above 1e-9 max(1, |w|): equal differences are never split, and
    near-equal ones that merge, or a non-regular A, only make a block
    larger.  The block over pairs (p_i, q_i) is the Hermitian 2 gamma
    sum_k Xt_k[p_i, p_j] conj(Xt_k[q_i, q_j]) - 2 gamma c 1, Xt = W^dagger
    X W, and one batched ``eigh`` per distinct block size gives every
    block's exp(lam t).  In time order, each record is checked against the
    one before by ``_checked_flow``.
    """
    rho = validate_density(rho0, rep.dim_hilbert)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError("record times must be a 1d array of finite nonnegative values")
    ham = _hamiltonian_matrix(h, rep)
    _check_gamma(gamma)
    d = rep.dim_hilbert
    probe = _philox([_GRADING_KEY, 0]).standard_normal(rep.dim_algebra)
    w, vecs = np.linalg.eigh(_combination(probe, rep.generators))
    x = vecs.conj().T @ rep.generators @ vecs
    diff = np.subtract.outer(w, w).ravel()
    order = np.argsort(diff, kind="stable")
    starts = np.flatnonzero(np.diff(diff[order], prepend=-np.inf) > 1e-9 * max(1.0, _max_abs(w)))
    sizes = np.diff(starts, append=d * d)
    r = (vecs.conj().T @ rho @ vecs).ravel()
    mixed = np.trace(rho) / d  # the fixed point tr(rho) 1 / d skips the blocks and their rounding
    r[:: d + 1] -= mixed
    flows = np.empty((d * d, len(times)), dtype=complex)
    for size in np.unique(sizes):
        idx = order[starts[sizes == size, None] + np.arange(size)]  # (blocks, size) pairs a d + b
        p, q = np.divmod(idx, d)
        xp, xq = x[:, p[:, :, None], p[:, None, :]], x[:, q[:, None, :], q[:, :, None]]
        blk = np.einsum("kbij,kbij->bij", xp, xq)  # Hermitian Xt: xq = conj(Xt_k[q_i, q_j])
        lam, v = np.linalg.eigh(2.0 * gamma * (blk - rep.casimir_eigenvalue * np.eye(size)))
        coef = np.matvec(v.conj().swapaxes(1, 2), r[idx])
        flows[idx] = v @ (np.exp(lam[:, :, None] * times) * coef[:, :, None])
    flows[:: d + 1] += mixed
    if ham is not None:
        vecs = unitary_exp(ham, -times) @ vecs
    flows = vecs @ flows.T.reshape(-1, d, d) @ vecs.conj().swapaxes(-1, -2)
    for i in np.argsort(times, kind="stable"):
        rho = flows[i] = _checked_flow(flows[i], rho)
    return flows
