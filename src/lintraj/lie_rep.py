"""Faithful (4N+2)-dimensional matrix representation of the doubled-mode algebra.

The span of {1, b_mu, b_mu^dag, quadratics} over the 2N doubled modes closes
under commutation and admits a smallest faithful representation by matrices of
size 4N+2.  Rows and columns are laid out as

    position  0   | 1 .. 2N          | 2N+1 .. 4N            | 4N+1
    meaning   "0" | creation labels  | annihilation labels   | "-0"
                  | mu = 1 .. 2N     | mu = 2N .. 1 (flipped)|

The elementary images (M[i, j] denotes a single-entry matrix):

    b_mu^dag b_nu   ->  M[mu, nu] - M[-nu, -mu] + delta(mu, nu) M[-0, 0]
    b_mu^dag b_nu^dag -> M[mu, -nu] + M[nu, -mu]
    b_mu b_nu       -> -M[-mu, nu] - M[-nu, mu]
    b_mu^dag        ->  M[mu, 0] - M[-0, -mu]
    b_mu            -> -M[-mu, 0] - M[-0, mu]
    identity        -> -2 M[-0, 0]

where a negative label -mu sits at position 4N+1-mu.  Matrix exponentials,
logarithms and block manipulations of these images implement all operator
disentanglement and reordering used by the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import expm, logm

from .errors import LogBranchFailure, MatrixExpFailure, SingularBlock
from .parameterization import QuadraticForm, half_swap

_COND_LIMIT = 1e12
# steps per chunk of propagator_powers, i.e. the number of stored powers of
# the single step (a multiple of 8): large enough that each chunk is one
# stacked matmul, small enough (~0.3 MB at N = 1) to stay off the peak memory
_POWER_CHUNK = 512


def flip(n_doubled: int) -> np.ndarray:
    """Anti-diagonal permutation on the 2N block indices."""
    return np.fliplr(np.eye(n_doubled))


@dataclass(frozen=True)
class RepMatrix:
    """A (4N+2) x (4N+2) image of an algebra element."""

    n_modes: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return 4 * self.n_modes + 2


def rep_of_generator(qf: QuadraticForm) -> RepMatrix:
    """Image of a quadratic form, linear and scalar parts included: of the
    deterministic generator (R, D, L, q0) of :func:`compute_generator`, or
    of any other element of the algebra."""
    n = qf.n
    m = 2 * n
    dim = 4 * n + 2
    J = flip(m)
    T = np.zeros((dim, dim), dtype=complex)
    R = (qf.R + qf.R.T) / 2.0
    L = (qf.L + qf.L.T) / 2.0
    T[1:m + 1, 1:m + 1] += qf.D
    T[m + 1:2 * m + 1, m + 1:2 * m + 1] += -J @ qf.D.T @ J
    T[1:m + 1, m + 1:2 * m + 1] += 2.0 * R @ J
    T[m + 1:2 * m + 1, 1:m + 1] += -2.0 * J @ L
    T[1:m + 1, 0] += qf.lin_r
    T[m + 1:2 * m + 1, 0] += -(J @ qf.lin_l)
    T[dim - 1, 1:m + 1] += -qf.lin_l
    T[dim - 1, m + 1:2 * m + 1] += -(J @ qf.lin_r)
    T[dim - 1, 0] += np.trace(qf.D) - 2.0 * qf.const
    return RepMatrix(n_modes=n, matrix=T)


@dataclass(frozen=True)
class PropagatorBlocks:
    """Blocks of exp(rep * t), named by the (row, column) label ranges.

    N11/N1m1/Nm11/Nm1m1 are the 2N x 2N inner blocks; N10/Nm10 the first
    column, Nm01/Nm0m1 the last row, and c the lower-left scalar.  The
    record-independent Nm1m1^{-1} and L' are computed once per blocks object
    and shared by every record normal-ordered against it.
    """

    n_modes: int
    t: float
    N11: np.ndarray
    N1m1: np.ndarray
    Nm11: np.ndarray
    Nm1m1: np.ndarray
    N10: np.ndarray
    Nm10: np.ndarray
    Nm01: np.ndarray
    Nm0m1: np.ndarray
    c: complex

    @classmethod
    def from_matrix(cls, n_modes: int, t: float, T: np.ndarray) -> "PropagatorBlocks":
        m = 2 * n_modes
        return cls(
            n_modes=n_modes, t=t,
            N11=T[1:m + 1, 1:m + 1], N1m1=T[1:m + 1, m + 1:2 * m + 1],
            Nm11=T[m + 1:2 * m + 1, 1:m + 1], Nm1m1=T[m + 1:2 * m + 1, m + 1:2 * m + 1],
            N10=T[1:m + 1, 0], Nm10=T[m + 1:2 * m + 1, 0],
            Nm01=T[4 * n_modes + 1, 1:m + 1], Nm0m1=T[4 * n_modes + 1, m + 1:2 * m + 1],
            c=T[4 * n_modes + 1, 0],
        )

    @cached_property
    def Nm1m1_inv(self) -> np.ndarray:
        """Checked Nm1m1^{-1}.  A SingularBlock propagates from every access:
        a failed computation is not cached."""
        return _checked_inverse(self.Nm1m1, "Nm1m1")

    @cached_property
    def L_prime(self) -> np.ndarray:
        """Symmetric annihilation-quadratic parameter, the symmetric part of
        -(1/2) J Nm1m1^{-1} Nm11."""
        L_prime = -0.5 * flip(2 * self.n_modes) @ self.Nm1m1_inv @ self.Nm11
        return (L_prime + L_prime.T) / 2.0


def propagator_blocks(rep: RepMatrix, t: float) -> PropagatorBlocks:
    """Blocks of expm(rep.matrix * t).

    Scaling-and-squaring Pade exponential; an eigendecomposition fast path is
    unnecessary at this matrix size but the result is checked for finiteness.
    """
    if t < 0:
        raise ValueError("propagator time must be >= 0")
    T = expm(rep.matrix * t)
    if not np.all(np.isfinite(T)):
        raise MatrixExpFailure(f"non-finite entries in expm at t={t}")
    return PropagatorBlocks.from_matrix(rep.n_modes, t, T)


def step_powers(step: np.ndarray, count: int) -> np.ndarray:
    """(count + 1, d, d) stack of the powers step^k, k = 0..count, each the
    sequential product step^(k-1) @ step.  Every product is its own small
    GEMM, too small for OpenBLAS to thread (see :func:`propagator_powers`)."""
    powers = np.empty((count + 1,) + step.shape, dtype=step.dtype)
    acc = powers[0] = np.eye(len(step), dtype=step.dtype)
    for k in range(1, count + 1):
        acc = powers[k] = acc @ step
    return powers


def propagator_powers(rep: RepMatrix, dt: float, steps: int):
    """Yield (j0, chunk) with chunk[k] = expm(rep * (j0 + k + 1) * dt): the
    propagators at j = 1..steps in consecutive chunks of ``_POWER_CHUNK``
    steps.

    Blocked powers: the first chunk is the powers P_k = step^k, k = 1..C, of
    the single-step propagator, one sequential product each
    (:func:`step_powers`).  Every later chunk is that stack times the last
    propagator of the previous chunk, P_k P_{j0} for k = 1..C, in one
    stacked matmul of (8 d, d) @ (d, d) GEMMs.  A single (C d, d) @ (d, d)
    GEMM would be large enough for OpenBLAS to thread it, and threaded GEMMs
    this small were seen to stall for up to ~0.8 s per table in a fresh
    process on a 2-core host.  The result differs from sequential products
    over the whole grid by rounding only.

    Chunks let callers keep only the entries they need without ever holding
    the whole grid.  No eigendecomposition: every generator image is
    defective, because its nonzero corner entry joins the two zero
    eigenvalues into a Jordan block, so its eigenvectors are never well
    conditioned.
    """
    d = rep.dim
    powers = step_powers(expm(rep.matrix * dt), min(_POWER_CHUNK, steps))[1:]
    for j0 in range(0, steps, _POWER_CHUNK):
        if j0 == 0:
            chunk = powers
        else:
            stacks = powers.reshape(-1, 8 * d, d)    # 8 powers P_k per GEMM
            chunk = (stacks @ chunk[-1]).reshape(powers.shape)[:steps - j0]
        yield j0, chunk


@dataclass(frozen=True)
class DisentangledQuadratic:
    """Parameters of exp(creation factor) exp(number factor) exp(annihilation
    factor) equal to a purely quadratic group element."""

    n_modes: int
    R_prime: np.ndarray
    L_prime: np.ndarray
    D_under: np.ndarray
    delta_prime: complex


def _checked_inverse(block: np.ndarray, what: str) -> np.ndarray:
    cond = np.linalg.cond(block)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularBlock(f"{what} is numerically singular (cond={cond:.2e})")
    return np.linalg.inv(block)


def _principal_log(block: np.ndarray, what: str) -> np.ndarray:
    w = np.linalg.eigvals(block)
    scale = np.abs(w).max(initial=1.0)
    on_cut = (w.real <= 0) & (np.abs(w.imag) <= 1e-13 * scale)
    if np.any(on_cut):
        raise LogBranchFailure(
            f"{what} has an eigenvalue on the closed negative real axis; "
            "principal logarithm undefined")
    return logm(block)


def disentangle_quadratic(blocks: PropagatorBlocks) -> DisentangledQuadratic:
    """Extract the three-factor parameters from propagator blocks.

    With J the index flip:  D_under^T = -J log(Nm1m1) J,
    2 R' = N1m1 Nm1m1^{-1} J,  2 L' = -J Nm1m1^{-1} Nm11, and the scalar
    follows from the lower-left entry once tr(D_under) is known.
    """
    J = flip(2 * blocks.n_modes)
    R_prime = 0.5 * blocks.N1m1 @ blocks.Nm1m1_inv @ J
    lg = _principal_log(blocks.Nm1m1, "Nm1m1")
    D_under = -(J @ lg @ J).T
    R_prime = (R_prime + R_prime.T) / 2.0
    delta_prime = (np.trace(D_under) - blocks.c) / 2.0
    return DisentangledQuadratic(n_modes=blocks.n_modes, R_prime=R_prime,
                                 L_prime=blocks.L_prime, D_under=D_under,
                                 delta_prime=delta_prime)


def normal_order_linear(blocks: PropagatorBlocks, l_prime: np.ndarray,
                        r_prime: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve exp(b^dag r_u) exp(Q t) exp(l_u b) =
    exp(-sigma) exp(Q t) exp(b^dag r') exp(l' b) for (l_u, r_u).

    ``l_prime`` and ``r_prime`` are (2N,) vectors or (S, 2N) stacks with one
    record per row, and (l_u, r_u) have their shape: the map is linear, so
    its inverse is shared by every call on the same ``blocks``.  As rows,
    r_u = r' J inv J and l_u = l' - (r' J) (inv Nm11), with
    inv = Nm1m1^{-1}.  The reordering also spawns the scalar
    sigma = r'^T L' r' (see :func:`reordering_scalar`), which multiplies the
    evolution operator when the normal-ordered factor arrangement is used.
    """
    J = flip(2 * blocks.n_modes)
    inv = blocks.Nm1m1_inv
    rJ = r_prime @ J
    return l_prime - rJ @ (inv @ blocks.Nm11), rJ @ inv @ J


def reordering_scalar(blocks: PropagatorBlocks,
                      r_prime: np.ndarray) -> complex | np.ndarray:
    """Scalar exponent spawned by normal-ordering the linear factors:
    sigma = r'^T L' r' with L' the annihilation-quadratic parameter.  A
    (2N,) ``r_prime`` gives one sigma, an (S, 2N) stack one per row.  Only
    the symmetric part of L' enters, so this is the L' of
    :func:`disentangle_quadratic`."""
    return ((r_prime @ blocks.L_prime) * r_prime).sum(axis=-1)


def povm_blocks(blocks: PropagatorBlocks) -> np.ndarray:
    """Full 2N x 2N matrix of effect-operator quadratic parameters.

    Obtained by disentangling the propagator left-multiplied by the
    partner-pairing factor; the pairing shifts the annihilation parameter by
    half the half-swap matrix, which is removed again at the end.  The [:N, :N]
    block is the squeezing-like parameter, [:N, N:] the thermal-like one.
    """
    n = blocks.n_modes
    m = 2 * n
    J = flip(m)
    JI = J @ half_swap(n)
    A = blocks.Nm1m1 - JI @ blocks.N1m1
    B = blocks.Nm11 - JI @ blocks.N11
    inv = _checked_inverse(A, "transformed Nm1m1")
    L_full = -0.5 * J @ inv @ B - 0.5 * half_swap(n)
    return (L_full + L_full.T) / 2.0
