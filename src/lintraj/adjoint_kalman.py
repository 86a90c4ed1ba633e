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
The flow is linear and its one-step matrix is fixed, so :func:`backward_sweep`
advances in segments over stacked powers of that step instead of one step at
a time.  Its test oracles in ``tests/conftest.py`` are the per-step
``inverse_backward_sweep`` and the 40-digit arbiter ``mp_backward_sweep``.

Forward: :func:`forward_covariance_flow` is the one record-independent
covariance and gain flow, with measurement gain ``2 V B^T - S^T`` (the sign of
S flips under time reversal); :func:`forward_filter` and the conditioned
record sampler each run only their mean loop over it.  The explicit-Euler
information filter is the test oracle ``euler_backward`` in
``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (
    CrossCheckFailure,
    DimensionMismatch,
    FilterDivergence,
    RiccatiBlowup,
)
from .lie_rep import _POWER_CHUNK, step_powers
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
    ``moments`` is taken.  [X; Y] follows the linear Riccati flow; the
    covariance part Lambda = Y X^{-1} is record-independent, and
    z = X^{-T} w with w the Ito quadrature of the record slices the sweep has
    passed.  Slice k adds g_k [X; Y]_k to w, with g_k = y^T [2 B^T; S^T]^T dt
    (see the module docstring), so X is inverted only at the samples.

    The sweep runs in segments of up to ``_POWER_CHUNK`` steps, each ending
    at the next sample point at the latest, so the samples and taus are
    those of a per-step sweep.  The powers P^0..P^C of the one-step flow P
    are formed once per call (:func:`~lintraj.lie_rep.step_powers`).  A
    segment of n steps from k0 adds sum_i g_{k0+i} P^i [X; Y]_{k0} to w as
    one product of the flattened record slices with the stacked
    P^i [X; Y]_{k0}, then sets [X; Y] <- P^n [X; Y].  This reorders the
    per-step arithmetic; the tests hold the result to a 40-digit sweep from
    the same float64 step and record (``mp_backward_sweep`` in
    ``tests/conftest.py``).

    Raises DimensionMismatch for a record whose column count is not the
    system's 2L or whose row count is not its steps, ValueError for complex
    or non-finite currents, and RiccatiBlowup when the flow leaves the
    floats.
    """
    y = checked_currents(record.y, mats.B.shape[0])
    steps = record.steps
    if len(y) != steps:
        raise DimensionMismatch(f"record has {len(y)} rows for {steps} steps")
    dt = record.dt
    n2 = 2 * mats.n_modes
    # left-multiplied powers P^k = step @ P^(k-1), as transposed powers of
    # step^T: up to the first segment end, where cond(Lambda) is largest,
    # [X; Y] is then bitwise the per-step product step @ [X; Y]
    step = expm(_riccati_flow_matrix(mats) * dt)
    powers = step_powers(step.T, min(_POWER_CHUNK, steps)).transpose(0, 2, 1)
    xy = np.vstack([np.eye(n2), np.zeros((n2, n2))])
    w = np.zeros(n2)
    # slice j enters once the sweep has passed backward time t_final - j dt;
    # its kernel is the flow one step before that sample
    gy = y[::-1] @ (np.vstack([2.0 * mats.B.T, mats.S.T]).T * dt)
    sample_every = max(1, steps // max(1, n_samples - 1))
    taus, xs, Vs = [], [], []

    def emit(k_back):
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

    moments = emit(0)
    k0 = 0
    while k0 < steps:
        k1 = min(k0 + _POWER_CHUNK, (k0 // sample_every + 1) * sample_every,
                 steps)
        n = k1 - k0
        w += gy[k0:k1].reshape(-1) @ (powers[:n] @ xy).reshape(-1, n2)
        xy = powers[n] @ xy
        if k1 % sample_every == 0 or k1 == steps:
            moments = emit(k1)
        k0 = k1
    return np.array(taus), np.array(xs), np.array(Vs), moments


def backward_moment_trajectory(mats: KalmanMatrices, record: MeasurementRecord,
                               n_samples: int = 50):
    """(taus, xs, Vs) of the effect moments over :func:`backward_sweep`."""
    return backward_sweep(mats, record, n_samples)[:3]


def forward_covariance_flow(mats: KalmanMatrices, cov: np.ndarray,
                            dt: float, steps: int):
    """(gains, covs): the record-independent forward Riccati flow
    (explicit Euler, symmetrized each step).

    gains[j] = 2 V_j B^T - S^T has shape (steps, 2N, 2L); covs has shape
    (steps+1, 2N, 2N) with entry 0 the initial covariance.
    """
    covs = np.empty((steps + 1,) + np.shape(cov))
    gains = np.empty((steps,) + mats.S.T.shape)
    V = covs[0] = np.asarray(cov, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):   # reported below
        for j in range(steps):
            gain = gains[j] = 2.0 * V @ mats.B.T - mats.S.T
            V = V + dt * (mats.A @ V + V @ mats.A.T + mats.E - gain @ gain.T)
            V = covs[j + 1] = (V + V.T) / 2
    # whichever happened first: positivity lost, or the flow left the floats
    finite = np.isfinite(covs).all(axis=(1, 2))
    n_finite = len(covs) if finite.all() else int(np.argmin(finite))
    wmin = np.linalg.eigvalsh(covs[1:n_finite]).min(initial=0.0)
    if wmin < -1e-8:
        raise FilterDivergence(f"conditioned covariance eigenvalue {wmin:.2e}")
    if n_finite < len(covs):
        raise RiccatiBlowup(f"forward covariance is non-finite from step "
                            f"{n_finite}")
    return gains, covs


def forward_filter(mats: KalmanMatrices, mean: np.ndarray, cov: np.ndarray,
                   record: MeasurementRecord):
    """Conditioned Gaussian moments along a record (explicit Euler).

    Returns (means, covs) with shapes (steps+1, 2N) and (steps+1, 2N, 2N);
    entry 0 is the initial condition.  The covariance flow is
    :func:`forward_covariance_flow`.
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
