"""Matrix exponential and principal logarithm of small dense matrices.

Both act on (..., n, n) stacks, one result per matrix: every step of the
algorithm runs on the whole stack at once, and a matrix that needs fewer
squarings or square roots than the others simply sits out the extra ones, so
a stacked call gives each matrix the result it gets on its own.

* :func:`expm` is the [13/13] Pade scaling and squaring of Higham, SIAM J.
  Matrix Anal. Appl. 26 (2005) 1179; :func:`expm_table` tables it.
* :func:`logm` is inverse scaling and squaring: square roots by the scaled
  product form of the Denman-Beavers iteration until the matrix is within
  ``_LOG_THETA`` of the identity, then the [12/12] Pade approximant of
  log(I + E) in partial fractions (Gauss-Legendre nodes), scaled back
  (Higham, Functions of Matrices (2008), ch. 6 and 11; Al-Mohy & Higham,
  SIAM J. Sci. Comput. 34 (2012) C153).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LogBranchFailure

# Higham (2005), Table 2.3: the largest 1-norm for which the [13/13] Pade
# approximant is accurate to unit roundoff in double precision
_THETA_13 = 5.371920351148152
# its coefficients over the constant one, so that the approximant at a zero
# matrix is I - 0 solved against I + 0: exp(0) = I exactly
_PADE_13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
# 1-norm of E below which the [12/12] Pade approximant of log(I + E) is
# accurate to unit roundoff (its scalar error is below 1e-19 on |x| <= 0.5)
_LOG_THETA = 0.5
_LOG_PADE = 12
# matrices per stacked expm of expm_table: ~1 MB of temporaries at 6 x 6
_EXPM_STACK = 128
# Denman-Beavers steps per square root, and square roots per logarithm, that
# no matrix off the closed negative real axis needs
_MAX_ITER = 100


def _norm1(A: np.ndarray) -> np.ndarray:
    """1-norm (largest column sum) of each matrix of a stack."""
    return np.abs(A).sum(axis=-2).max(axis=-1)


def expm(A) -> np.ndarray:
    """exp(A) of each matrix of an (..., n, n) stack.

    Each matrix is scaled by 2^-s with s the least integer for which its
    1-norm drops to ``_THETA_13``, exponentiated by the [13/13] Pade
    approximant and squared s times.  A matrix with non-finite entries
    gives NaN.
    """
    A = np.asarray(A)
    if not np.issubdtype(A.dtype, np.inexact):
        A = A.astype(float)
    shape, n = A.shape, A.shape[-1]
    A = A.reshape(-1, n, n)
    norm = _norm1(A)
    bad = ~np.isfinite(norm)
    if bad.any():
        A = np.where(bad[:, None, None], 0, A)
        norm = np.where(bad, 0.0, norm)
    with np.errstate(divide="ignore"):          # a zero matrix needs no scaling
        s = np.maximum(np.ceil(np.log2(norm / _THETA_13)), 0).astype(int)
    if s.any():
        A = A * 0.5 ** s[:, None, None]
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    eye = np.eye(n)

    def even(c0, c2, c4, c6):
        """c0 I + c2 A^2 + c4 A^4 + c6 A^6, with few temporaries."""
        out = c6 * A6
        out += c4 * A4
        out += c2 * A2
        if c0:
            out += c0 * eye
        return out

    b = _PADE_13
    U = A6 @ even(0.0, b[9], b[11], b[13])
    U += even(b[1], b[3], b[5], b[7])
    U = A @ U
    V = A6 @ even(0.0, b[8], b[10], b[12])
    V += even(b[0], b[2], b[4], b[6])
    # R = (V + U)(V - U)^-1, solved transposed: pivoting on the columns of
    # (V - U)^T leaves a zero first row and a zero last column of A, as in
    # every generator image, exactly e_0 and e_last in exp(A)
    R = np.linalg.solve((V - U).swapaxes(1, 2), (V + U).swapaxes(1, 2))
    R = R.swapaxes(1, 2)
    for k in range(s.max(initial=0)):
        sq = s > k
        if sq.all():
            R = R @ R
        else:
            R[sq] = R[sq] @ R[sq]
    if bad.any():
        R[bad] = np.nan
    return R.reshape(shape)


def expm_table(A: np.ndarray, dt: float, steps: int, block=np.s_[:, :]):
    """(powers, bases, final): exp(A k dt), k = 0..steps, factored.  With
    C = ceil(sqrt(steps)), powers[i] = exp(A i dt), i = 0..C, and
    bases[q] = exp(A qC dt), q = 0..steps // C, each its own exponential
    cropped to ``block``, so exp(A k dt) = powers[i] @ bases[q] for
    k = qC + i; ``final`` is the whole exp(A steps dt)."""
    chunk = math.isqrt(max(steps - 1, 0)) + 1
    times = dt * np.r_[0:chunk + 1, chunk * np.arange(steps // chunk + 1),
                       steps]
    table = np.empty((len(times),) + np.empty(A.shape)[block].shape,
                     dtype=np.result_type(A, float))
    for i in range(0, len(times), _EXPM_STACK):
        full = expm(A * times[i:i + _EXPM_STACK, None, None])
        table[i:i + _EXPM_STACK] = full[(...,) + block]
    return table[:chunk + 1], table[chunk + 1:-1], full[-1].copy()


def _sqrtm(X: np.ndarray) -> np.ndarray:
    """Principal square root of each matrix of an (S, n, n) stack by the
    product form of the Denman-Beavers iteration with determinantal
    scaling: M_0 = Y_0 = X, mu = |det M|^(-1/2n),
    Y <- mu Y (I + M^-1 / mu^2) / 2 and M <- (I + (mu^2 M + M^-1 / mu^2) / 2) / 2,
    until M is the identity to rounding."""
    n = X.shape[-1]
    eye = np.eye(n)
    Y, M = X.copy(), X.copy()
    active = np.ones(len(X), dtype=bool)
    for _ in range(_MAX_ITER):
        Ma = M[active]
        try:
            Minv = np.linalg.inv(Ma)
        except np.linalg.LinAlgError:
            # an iterate is singular only for an eigenvalue on the cut
            raise LogBranchFailure("square root iteration hit a singular "
                                   "matrix: an eigenvalue is on the closed "
                                   "negative real axis") from None
        mu2 = (np.abs(np.linalg.det(Ma)) ** (-1.0 / n))[:, None, None]
        Y[active] = 0.5 * np.sqrt(mu2) * (Y[active] @ (eye + Minv / mu2))
        M[active] = 0.5 * (eye + 0.5 * (mu2 * Ma + Minv / mu2))
        active[active] = _norm1(M[active] - eye) > 4 * n * np.finfo(float).eps
        if not active.any():
            return Y
    raise LogBranchFailure("square root iteration did not converge: an "
                           "eigenvalue is on or at the closed negative real axis")


def logm(A) -> np.ndarray:
    """Principal logarithm of each matrix of an (..., n, n) stack (complex).

    log(A) = p log(2) I + log(X) with X = 2^-p A, the power of two p chosen
    so that |det X| is within a factor 2^(n/2) of 1: the scaling is exact,
    and it takes the overall magnitude out of the square roots.  Then
    inverse scaling and squaring: k square roots (:func:`_sqrtm`) until
    ||X - I||_1 <= ``_LOG_THETA``, and log(X) = 2^k r(X - I) with
    r(E) = sum_j w_j (I + x_j E)^-1 E the [12/12] Pade approximant of
    log(I + E) at the Gauss-Legendre nodes x_j and weights w_j on [0, 1].
    LogBranchFailure when the square roots do not approach the identity, as
    for an eigenvalue on the closed negative real axis.
    """
    A = np.asarray(A, dtype=complex)
    shape, n = A.shape, A.shape[-1]
    A = A.reshape(-1, n, n)
    with np.errstate(divide="ignore"):          # a singular A fails below
        p = np.round(np.log2(np.abs(np.linalg.det(A))) / n)
    p = np.where(np.isfinite(p), p, 0.0)
    X = A * 2.0 ** -p[:, None, None]
    eye = np.eye(n)
    k = np.zeros(len(X), dtype=int)
    for _ in range(_MAX_ITER):
        far = _norm1(X - eye) > _LOG_THETA
        if not far.any():
            break
        X[far] = _sqrtm(X[far])
        k[far] += 1
    else:
        raise LogBranchFailure("square roots do not approach the identity: "
                               "no principal logarithm")
    # Golub-Welsch: the Gauss-Legendre rule from the Jacobi matrix
    j = np.arange(1, _LOG_PADE)
    nodes, vecs = np.linalg.eigh(np.diag(j / np.sqrt(4.0 * j * j - 1), -1))
    E = X - eye
    terms = np.linalg.solve(eye + 0.5 * (nodes[:, None, None, None] + 1) * E,
                            np.broadcast_to(E, (_LOG_PADE,) + E.shape))
    L = np.tensordot(vecs[0] ** 2, terms, axes=1) * 2.0 ** k[:, None, None]
    L += (p * np.log(2.0))[:, None, None] * eye
    return L.reshape(shape)
