"""Backward (effect-operator) and forward (state) Kalman filters.

The Gaussian effect operator evolves backwards in time under the dual of the
conditioned dynamics.  Starting from a flat (infinite-covariance) effect, the
information pair ``(z, Lambda)`` with ``z = Lambda x`` integrates from zero and
stays finite, avoiding the infinite kicks the mean equation suffers at the
flat starting point.

All four coefficient matrices derive from the system spec:

    A = Sigma (G + Im C^dag C),   B = Re M^dag C,
    S = Im(M^dag C) Sigma^T,      E = Sigma Re(C^dag C) Sigma^T.

Backward: Lambda = Y X^{-1} with [X; Y] on the linear Riccati flow.  The flow
keeps [X; Y] Lagrangian, X^T Y = Y^T X (it starts at zero and its derivative
Y^T Cm Y + X^T 4 B^T B X is symmetric), so the sweep's record kernel
X^T (2 B^T + Lambda S^T) is [X; Y]^T [2 B^T; S^T] and needs no inverse of X.
The flow is linear with a fixed matrix M, so :func:`backward_sweep` reads it
from a factored table of direct exponentials expm(M t), the same scheme as
:class:`~lintraj.trajectory.BlockTable`, and folds the record a block at a
time.  Its test oracles in ``tests/conftest.py`` are the per-step
``inverse_backward_sweep`` and the 40-digit arbiter ``mp_backward_sweep``.

Forward: :func:`forward_covariance_flow` is the one record-independent
covariance and gain flow, with measurement gain ``2 V B^T - S^T`` (the sign of
S flips under time reversal).  It is exact: V = X Y^{-1} with [X; Y] on the
linear flow whose matrix is the backward one with its diagonal blocks
negated, read from one stack of step powers expm(M i dt), i <= C, and
re-anchored at [V; 1] every C = ceil(sqrt(steps)) steps, so it stays inside
the floats on any grid.  :func:`forward_filter` runs its Ito mean loop over
it; the conditioned record sampler folds each step's gain and drift into one
matrix that advances every record's mean and noise draw with one product.
The explicit-Euler information filter is the test oracle ``euler_backward``
in ``tests/conftest.py``; the forward flow's are
``exact_forward_covariances`` (each step its own scipy exponential) and the
30-digit ``mp_forward_covariance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import expm, expm_table
from .errors import CrossCheckFailure, FilterDivergence, RiccatiBlowup
from .system import SystemSpec
from .trajectory import MeasurementRecord, checked_currents

INFO_FLOOR = 1e-12
# largest residual crosscheck_against_povm accepts between the two routes
CROSSCHECK_TOL = 1e-8


@dataclass(frozen=True)
class KalmanMatrices:
    n_modes: int
    A: np.ndarray
    B: np.ndarray
    S: np.ndarray
    E: np.ndarray


@dataclass(frozen=True)
class EffectMoments:
    """Gaussian effect summary at the earliest time of the backward sweep.

    Directions with information below the floor carry infinite variance; they
    are masked out of x and V (reported as inf) but kept in (z, Lambda).
    """

    n_modes: int
    z: np.ndarray
    Lambda: np.ndarray
    x: np.ndarray
    V: np.ndarray
    informative: np.ndarray  # eigenvector basis mask

    def finite_projector(self) -> np.ndarray:
        """Orthogonal projector onto the informative subspace."""
        w, U = np.linalg.eigh((self.Lambda + self.Lambda.T) / 2)
        keep = w > INFO_FLOOR
        return U[:, keep] @ U[:, keep].T


def kalman_matrices(spec: SystemSpec) -> KalmanMatrices:
    sigma = spec.symplectic
    cdc = spec.C.conj().T @ spec.C
    mdc = spec.M.conj().T @ spec.C
    return KalmanMatrices(
        n_modes=spec.n_modes,
        A=sigma @ (spec.G + cdc.imag),
        B=mdc.real,
        S=mdc.imag @ sigma.T,
        E=sigma @ cdc.real @ sigma.T,
    )


def _riccati_flow_matrix(mats: KalmanMatrices) -> np.ndarray:
    """Linearization of the backward information Riccati.

    With A~ = A + 2 S^T B and Cm = E - S^T S, Lambda(s) = Y(s) X(s)^{-1} where
    d/ds [X; Y] = [[-A~, Cm], [4 B^T B, A~^T]] [X; Y], X(0) = 1, Y(0) = 0.
    """
    a_t = mats.A + 2.0 * mats.S.T @ mats.B
    cm = mats.E - mats.S.T @ mats.S
    q = 4.0 * mats.B.T @ mats.B
    n2 = a_t.shape[0]
    M = np.zeros((2 * n2, 2 * n2))
    M[:n2, :n2] = -a_t
    M[:n2, n2:] = cm
    M[n2:, :n2] = q
    M[n2:, n2:] = a_t.T
    return M


def _moments_from_information(n_modes: int, z: np.ndarray, lam: np.ndarray):
    """(x, V) views of the information pair.

    V is the limit of (Lambda + eps)^{-1}: the pseudo-inverse on the
    informative subspace, with inf exactly where the flat-direction projector
    has support (so an uncorrelated flat direction leaves its cross entries
    zero, not infinite).  x is inf along flat directions.
    """
    lam = (lam + lam.T) / 2
    w, U = np.linalg.eigh(lam)
    keep = w > INFO_FLOOR
    n2 = 2 * n_modes
    x = np.full(n2, np.inf)
    V = np.full((n2, n2), np.inf)
    if keep.any():
        Uk = U[:, keep]
        lam_inv = Uk @ np.diag(1.0 / w[keep]) @ Uk.T
        x = lam_inv @ z
        V = lam_inv.copy()
        if not keep.all():
            Un = U[:, ~keep]
            flat_proj = Un @ Un.T
            V[np.abs(flat_proj) > 1e-10] = np.inf
            x[np.abs(np.diag(flat_proj)) > 1e-10] = np.inf
    return x, V, keep


def integrate_backward(mats: KalmanMatrices,
                       record: MeasurementRecord) -> EffectMoments:
    """Effect moments after the backward sweep from a flat effect at
    ``record.t_final`` to tau = 0: the last sample of :func:`backward_sweep`.

    Lambda follows the linear Riccati flow exactly, and z is an explicit
    quadrature, so the only discretization is the Ito sum over the record
    (kernels evaluated at the slice times j dt, the same convention as the
    forward integrals).
    """
    return backward_sweep(mats, record, 1)[3]


def backward_sweep(mats: KalmanMatrices, record: MeasurementRecord,
                   n_samples: int):
    """(taus, xs, Vs, moments): the exact backward sweep, sampled about
    ``n_samples`` times, and its final moments.

    tau is the earliest time the effect has been integrated back to; entry 0
    is tau = record.t_final (flat effect), the last entry tau = 0, where
    ``moments`` is taken.  k steps back, [X; Y] = P^k [1; 0] with
    P^k = expm(M k dt); Lambda = Y X^{-1} is record-independent, and
    z = X^{-T} w with w the Ito quadrature of the record slices passed so
    far: slice k adds g_k P^k [1; 0], g_k = y^T [2 B^T; S^T]^T dt (see the
    module docstring), so X is inverted only at the samples.

    With C = ceil(sqrt(steps)), P^(qC + i) = powers[i] @ bases[q], each
    factor its own exponential (:func:`~lintraj._linalg.expm_table`).
    Block q adds (sum_i g_(qC+i) P^i) bases[q] to w: one product of its
    record rows with the stacked kernels g P^i, then one with its base; a
    sample reads the partial fold of its block.  No array spans the record.

    Raises DimensionMismatch for a record whose column count is not the
    system's 2L, ValueError for complex or non-finite currents, and
    RiccatiBlowup when the flow leaves the floats.
    """
    y = checked_currents(record.y, mats.B.shape[0])
    steps, dt = record.steps, record.dt
    n2 = 2 * mats.n_modes
    powers, bases, _ = expm_table(_riccati_flow_matrix(mats), dt, steps)
    chunk = len(powers) - 1
    bases = bases[:, :, :n2]
    # the record kernels [2 B^T; S^T]^T dt P^i of one block, stacked from
    # i = C - 1 down to 0: the sweep runs back in time, the record forward
    kernels = (np.vstack([2.0 * mats.B.T, mats.S.T]).T * dt
               @ powers[chunk - 1::-1])
    sample_every = max(1, steps // max(1, n_samples - 1))
    taus, xs, Vs = [], [], []

    def emit(k_back, w):
        q, i = divmod(k_back, chunk)
        xy = powers[i] @ bases[q]
        X, Y = xy[:n2], xy[n2:]
        lam = Y @ np.linalg.inv(X)
        lam = (lam + lam.T) / 2
        z = np.linalg.solve(X.T, w)
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(lam))):
            raise RiccatiBlowup("backward flow produced non-finite moments")
        x, V, keep = _moments_from_information(mats.n_modes, z, lam)
        taus.append(record.t_final - k_back * dt)
        xs.append(x)
        Vs.append(V)
        return EffectMoments(n_modes=mats.n_modes, z=z, Lambda=lam, x=x, V=V,
                             informative=keep)

    w = np.zeros(n2)            # record term of the finished blocks
    fold = np.zeros(2 * n2)     # the current block's sum_i g P^i
    moments = emit(0, w)
    # segments end at every block end and every sample
    bounds = sorted({*range(0, steps, sample_every), *range(0, steps, chunk),
                     steps})
    for k0, k1 in zip(bounds[:-1], bounds[1:]):
        # record row steps - 1 - k takes the kernel of P^k, the flow just
        # before the sweep passes it
        q = k0 // chunk
        end = (q + 1) * chunk
        fold += (y[steps - k1:steps - k0].reshape(-1)
                 @ kernels[end - k1:end - k0].reshape(-1, 2 * n2))
        if k1 % chunk == 0:
            w += fold @ bases[q]
            fold[:] = 0.0
        if k1 % sample_every == 0 or k1 == steps:
            moments = emit(k1, w + fold @ bases[q])
    return np.array(taus), np.array(xs), np.array(Vs), moments


def backward_moment_trajectory(mats: KalmanMatrices, record: MeasurementRecord,
                               n_samples: int = 50):
    """(taus, xs, Vs) of the effect moments over :func:`backward_sweep`."""
    return backward_sweep(mats, record, n_samples)[:3]


def _forward_flow_matrix(mats: KalmanMatrices) -> np.ndarray:
    """Linearization of the forward covariance Riccati
    dV/dt = A~ V + V A~^T + Cm - V 4 B^T B V: V(t) = X(t) Y(t)^{-1} where
    d/dt [X; Y] = [[A~, Cm], [4 B^T B, -A~^T]] [X; Y], X(0) = V(0),
    Y(0) = 1.  The backward flow's matrix with its diagonal blocks negated.
    """
    M = _riccati_flow_matrix(mats)
    n2 = 2 * mats.n_modes
    M[:n2, :n2] *= -1.0
    M[n2:, n2:] *= -1.0
    return M


def forward_covariance_flow(mats: KalmanMatrices, cov: np.ndarray,
                            dt: float, steps: int):
    """(gains, covs): the record-independent forward Riccati flow, exact
    (Davison & Maki, IEEE TAC 18 (1973) 71; Van Loan, IEEE TAC 23 (1978)
    395).

    gains[j] = 2 V_j B^T - S^T has shape (steps, 2N, 2L); covs has shape
    (steps+1, 2N, 2N) with entry 0 the initial covariance, which is taken
    to be symmetric.  With C = ceil(sqrt(steps)), the step powers
    P^i = expm(M i dt), i = 1..C, of the linear flow
    (:func:`_forward_flow_matrix`) are one stacked exponential, and the
    flow is re-anchored at [V; 1] every C steps: block q reads
    [X_i; Y_i] = P^i [V_qC; 1] with one batched product and
    V_(qC+i) = X_i Y_i^{-1} with one batched solve, symmetrized.  No step
    of the flow is longer than C dt, so [X; Y] stays far inside the floats
    however long the grid, and no loop runs over steps.

    FilterDivergence when a covariance after step 0 has an eigenvalue below
    -1e-8; RiccatiBlowup when a covariance or gain leaves the floats,
    whichever happens first.
    """
    n2 = 2 * mats.n_modes
    chunk = math.isqrt(max(steps - 1, 0)) + 1
    powers = expm(_forward_flow_matrix(mats)
                  * (dt * np.arange(1, chunk + 1))[:, None, None])
    covs = np.empty((steps + 1, n2, n2))
    covs[0] = cov
    anchor = np.vstack([covs[0], np.eye(n2)])
    # a bad initial covariance is named below, not warned about here
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j0 in range(0, steps, chunk):
            c = min(chunk, steps - j0)
            xy = powers[:c] @ anchor
            try:
                v = np.linalg.solve(xy[:, n2:].transpose(0, 2, 1),
                                    xy[:, :n2].transpose(0, 2, 1))
            except np.linalg.LinAlgError:   # a singular Y: V left the floats
                v = np.full((c, n2, n2), np.nan)
            block = covs[j0 + 1:j0 + c + 1]
            np.add(v, v.transpose(0, 2, 1), out=block)
            block *= 0.5
            anchor[:n2] = block[-1]
        gains = 2.0 * covs[:-1] @ mats.B.T - mats.S.T
    # whichever happened first: positivity lost, or the flow left the floats;
    # step j is bad when its gain or the covariance it reaches is not finite
    finite = (np.isfinite(covs[1:]).all(axis=(1, 2))
              & np.isfinite(gains).all(axis=(1, 2)))
    n_finite = steps if finite.all() else int(np.argmin(finite))
    wmin = np.linalg.eigvalsh(covs[1:n_finite + 1]).min(initial=0.0)
    if wmin < -1e-8:
        raise FilterDivergence(f"conditioned covariance eigenvalue {wmin:.2e}")
    if n_finite < steps:
        raise RiccatiBlowup(f"forward covariance is non-finite from step "
                            f"{n_finite}")
    return gains, covs


def forward_filter(mats: KalmanMatrices, mean: np.ndarray, cov: np.ndarray,
                   record: MeasurementRecord):
    """Conditioned Gaussian moments along a record: the means by the Ito
    (explicit Euler) step, the covariances by the exact
    :func:`forward_covariance_flow`.

    Returns (means, covs) with shapes (steps+1, 2N) and (steps+1, 2N, 2N);
    entry 0 is the initial condition.
    """
    dt = record.dt
    gains, covs = forward_covariance_flow(mats, cov, dt, record.steps)
    means = np.empty((record.steps + 1, len(covs[0])))
    xbar = means[0] = np.asarray(mean, dtype=float)
    for j in range(record.steps):
        innovation = record.y[j] * dt - 2.0 * (mats.B @ xbar) * dt
        xbar = means[j + 1] = xbar + mats.A @ xbar * dt + gains[j] @ innovation
    return means, covs


def crosscheck_against_povm(effect, moments: EffectMoments) -> dict:
    """Compare the effect-operator route with the backward-filter route.

    The Gaussian effect's coherent-amplitude mean maps to quadrature means via
    x = sqrt(2) (Re alpha, Im alpha); its alpha-space covariance is the
    Q-function covariance, half a vacuum unit above the Wigner covariance the
    backward filter reports.  Raises CrossCheckFailure beyond ``CROSSCHECK_TOL``.
    """
    n = moments.n_modes
    x_eff = np.empty(2 * n)
    x_eff[0::2] = np.sqrt(2.0) * np.real(effect.alpha_mean)
    x_eff[1::2] = np.sqrt(2.0) * np.imag(effect.alpha_mean)
    v_eff = effect.quadrature_covariance()          # Q-function covariance
    proj = moments.finite_projector()
    x_filter = np.where(np.isfinite(moments.x), moments.x, 0.0)
    mean_residual = float(np.abs(proj @ (x_eff - x_filter)).max(initial=0.0))
    v_filter = np.where(np.isfinite(moments.V), moments.V, 0.0)
    expected = proj @ (v_filter + 0.5 * np.eye(2 * n)) @ proj
    got = proj @ v_eff @ proj
    var_residual = float(np.abs(got - expected).max(initial=0.0))
    report = {
        "mean_residual": mean_residual,
        "variance_residual": var_residual,
        "informative_dims": int(moments.informative.sum()),
    }
    if mean_residual > CROSSCHECK_TOL or var_residual > CROSSCHECK_TOL:
        raise CrossCheckFailure(f"effect/filter mismatch: {report}")
    return report


def moments_to_csv(path: str, taus: np.ndarray, xs: np.ndarray, Vs: np.ndarray,
                   header_comment: str = "") -> None:
    """Moment trajectory dump: tau, x_1.., V_11, V_12, ...; inf spelled 'inf'."""
    n2 = xs.shape[1]
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        cols = ["tau"] + [f"x_{i + 1}" for i in range(n2)] + \
               [f"V_{i + 1}{j + 1}" for i in range(n2) for j in range(n2)]
        fh.write(",".join(cols) + "\n")
        for k in range(len(taus)):
            vals = [taus[k]] + list(xs[k]) + list(Vs[k].ravel())
            fh.write(",".join("inf" if not np.isfinite(v) else f"{v:.17g}"
                              for v in vals) + "\n")
