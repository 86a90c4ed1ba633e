"""Shared helpers for the test suite."""

import numpy as np
import pytest

from lintraj.parameterization import QuadraticGenerator
from lintraj.system import SystemSpec, validate_spec


def random_spec(n, ell, rng, complex_c=True):
    """Random valid system: symmetric G, arbitrary C, admissible M."""
    G = rng.normal(size=(2 * n, 2 * n))
    G = (G + G.T) / 2
    C = rng.normal(size=(ell, 2 * n)).astype(complex)
    if complex_c:
        C = C + 1j * rng.normal(size=(ell, 2 * n))
    A = rng.normal(size=(2 * ell, 2 * ell)) + 1j * rng.normal(size=(2 * ell, 2 * ell))
    Q, _ = np.linalg.qr(A)
    eta = rng.uniform(0, 1, size=ell)
    M = np.sqrt(eta)[:, None] * Q[:ell, :]
    return validate_spec(SystemSpec(n_modes=n, n_channels=ell, G=G, C=C, M=M))


def random_generator(n, rng, scale=1.0, real=False):
    """Random generator respecting the Hermiticity-pairing block structure."""
    def cpx(*shape):
        out = rng.normal(size=shape).astype(complex)
        if not real:
            out = out + 1j * rng.normal(size=shape)
        return out

    Rb = rng.normal(size=(n, n))
    Rb = (Rb + Rb.T) / 2
    Lb = rng.normal(size=(n, n))
    Lb = (Lb + Lb.T) / 2
    Rs = cpx(n, n)
    Rs = (Rs + Rs.T) / 2
    Ls = cpx(n, n)
    Ls = (Ls + Ls.T) / 2
    Dm = cpx(n, n)
    Db = cpx(n, n)
    R = np.block([[Rs, Rb], [Rb, Rs.conj()]]) * scale
    L = np.block([[Ls, Lb], [Lb, Ls.conj()]]) * scale
    D = np.block([[Dm, Db], [Db.conj(), Dm.conj()]]) * scale
    return QuadraticGenerator(n_modes=n, R=R, D=D, L=L,
                              scalar=complex(rng.normal() * scale))


def homodyne_golden_blocks(gamma, K, eta, t):
    """Closed-form entries (q, s, u, v, w, x, y, z) of the single-mode
    propagator blocks for the thermal homodyne system."""
    sh = np.sinh(gamma * t / 2)
    em = np.exp(-gamma * t / 2)
    ep = np.exp(gamma * t / 2)
    den = 2 * K + 1
    q = em * (1 - K * (eta * (K + 1) - 2 * K - 3)) / den \
        + ep * K * (eta + (eta - 2) * K - 1) / den
    s = 2 * eta * K * (K + 1) * sh / den
    u = 2 * K * (1 - (eta - 2) * K) / den * sh
    v = -2 * eta * K ** 2 / den * sh
    w = 2 * (K + 1) * (eta + (eta - 2) * K - 1) / den * sh
    x = 2 * eta * (K + 1) ** 2 / den * sh
    y = em * K * (eta + (eta - 2) * K - 1) / den \
        - ep * (K + 1) * ((eta - 2) * K - 1) / den
    z = -2 * eta * K * (K + 1) / den * sh
    return q, s, u, v, w, x, y, z


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def dense_evolution(rho0, factors):
    """Test oracle: the unnormalized evolved state from dense expm of each
    full D^2 x D^2 species lift (quadratic and linear parts together),
    times exp(delta' + sigma).  Single mode only; the engine never builds
    these exponentials."""
    from scipy.linalg import expm

    from lintraj.state_engine import evolution_superoperators

    v = rho0.rho.reshape(-1, order="F").astype(complex)
    for s in evolution_superoperators(factors, rho0.dim_per_mode):
        v = expm(s.toarray()) @ v
    v = v * np.exp(factors.log_scalar)
    return v.reshape(rho0.rho.shape, order="F")


def random_single_mode_factors(rng, t=0.5):
    """EvolutionFactors of a random single-mode system at time t, with random
    nonzero normal-ordered linear coefficients and sigma.

    The generator comes from a random physical system (``random_spec``), not
    from ``random_generator``: unphysical generators can make exp(S) span
    ~15 decades, where the dense-expm oracle itself drifts to ~1e-11 relative
    while the structured route stays near 1e-15 (both checked against a
    60-digit Taylor series of the sparse lifts)."""
    from dataclasses import replace

    from lintraj.lie_rep import propagator_blocks, rep_of_generator
    from lintraj.parameterization import compute_generator
    from lintraj.state_engine import EvolutionFactors

    spec = random_spec(1, int(rng.integers(1, 3)), rng)
    blocks = propagator_blocks(rep_of_generator(compute_generator(spec)), t)
    factors = EvolutionFactors.from_blocks(blocks)

    def cpx():
        return np.array([complex(rng.normal(), rng.normal())])

    return replace(factors, l_under=cpx(), r_under=cpx(),
                   sigma=complex(0.1 * rng.normal(), 0.1 * rng.normal()))


def einsum_accumulation(table, couplings, y):
    """Test oracle for ``accumulate_integrals_ensemble``: the per-step einsum
    form over every current column, with all (S, steps, 2N) increment
    streams held at once.  Returns (l', r', h) like the streamed route."""
    from lintraj.lie_rep import flip

    J = flip(2 * table.n_modes)
    dt = table.dt
    dl = np.einsum("sjk,km->sjm", y, couplings.W_l) * dt      # (S, J, 2N)
    dr = np.einsum("sjk,km->sjm", y, couplings.W_r) * dt
    dr_f = dr @ J.T                                            # J @ dr per step
    dl_p = (np.einsum("sjm,jmn->sjn", dl, table.N11)
            + np.einsum("sjm,jmn->sjn", dr_f, table.Nm11))
    dr_p_pre = (np.einsum("jmn,sjm->sjn", table.N1m1, dl)
                + np.einsum("jmn,sjm->sjn", table.Nm1m1, dr_f))
    dr_p = dr_p_pre @ J.T
    l_prime = dl_p.sum(axis=1)
    r_prime = dr_p.sum(axis=1)
    cum = np.cumsum(dr_p, axis=1) - dr_p                       # sum over k < j
    h = (np.einsum("sjm,sjm->s", dl_p, cum)
         + 0.5 * np.einsum("sjm,sjm->s", dl_p, dr_p))
    return l_prime, r_prime, h


def euler_backward(mats, record):
    """Test oracle for ``integrate_backward``: the explicit-Euler information
    filter for (z, Lambda), stepped back over the record from a flat effect.
    A~, Cm and 4 B^T B are read from the blocks of the linear Riccati flow."""
    from lintraj.adjoint_kalman import (
        EffectMoments,
        _moments_from_information,
        _riccati_flow_matrix,
    )

    n2 = 2 * mats.n_modes
    flow = _riccati_flow_matrix(mats)
    a_t, cm, q4 = -flow[:n2, :n2], flow[:n2, n2:], flow[n2:, :n2]
    dt = record.dt
    lam = np.zeros((n2, n2))
    z = np.zeros(n2)
    for j in range(record.steps - 1, -1, -1):
        dz = ((a_t - cm @ lam).T @ z * dt
              + (2.0 * mats.B.T + lam @ mats.S.T) @ record.y[j] * dt)
        dlam = (lam @ a_t + a_t.T @ lam - lam @ cm @ lam + q4) * dt
        z = z + dz
        lam = lam + dlam
    x, V, keep = _moments_from_information(mats.n_modes, z, lam)
    return EffectMoments(n_modes=mats.n_modes, z=z, Lambda=lam, x=x, V=V,
                         informative=keep)


def inverse_backward_sweep(mats, record, n_samples):
    """Test oracle for ``backward_sweep``: the same exact flow, with the
    record kernel X^T (2 B^T + Lambda S^T) formed from Lambda = Y X^{-1} at
    every step.  Returns (xs at the samples, final z)."""
    from scipy.linalg import expm

    from lintraj.adjoint_kalman import (
        _moments_from_information,
        _riccati_flow_matrix,
    )

    steps, dt = record.steps, record.dt
    n2 = 2 * mats.n_modes
    step = expm(_riccati_flow_matrix(mats) * dt)
    xy = np.vstack([np.eye(n2), np.zeros((n2, n2))])
    w = np.zeros(n2)
    sample_every = max(1, steps // max(1, n_samples - 1))
    xs = []

    def emit():
        X, Y = xy[:n2], xy[n2:]
        lam = Y @ np.linalg.inv(X)
        z = np.linalg.solve(X.T, w)
        xs.append(_moments_from_information(mats.n_modes, z, lam)[0])
        return z

    z = emit()
    for k_back in range(1, steps + 1):
        X, Y = xy[:n2], xy[n2:]
        lam_s = Y @ np.linalg.inv(X)
        w = w + X.T @ ((2.0 * mats.B.T + lam_s @ mats.S.T)
                       @ record.y[steps - k_back]) * dt
        xy = step @ xy
        if k_back % sample_every == 0 or k_back == steps:
            z = emit()
    return np.array(xs), z


def loop_conditioned_records(spec, mean, cov, dt, t_final, rng, n_traj=None):
    """Test oracle for ``sample_conditioned_record_gaussian``: the forward
    filter with the covariance stepped inside the per-step draw loop (one
    ``rng.normal(size=(n_traj, monitored))`` per step).  Returns the
    (n_traj or 1, steps, 2L) currents."""
    from lintraj.adjoint_kalman import kalman_matrices

    steps = int(round(t_final / dt))
    mats = kalman_matrices(spec)
    mask = spec.monitored
    m_traj = 1 if n_traj is None else n_traj
    xbar = np.tile(np.asarray(mean, dtype=float), (m_traj, 1))
    V = np.asarray(cov, dtype=float).copy()
    y_out = np.zeros((m_traj, steps, 2 * spec.n_channels))
    for j in range(steps):
        gain = 2.0 * V @ mats.B.T - mats.S.T
        dw = np.zeros((m_traj, 2 * spec.n_channels))
        dw[:, mask] = rng.normal(size=(m_traj, int(mask.sum()))) * np.sqrt(dt)
        y_out[:, j, :] = (xbar @ (2.0 * mats.B).T * dt + dw) / dt
        xbar = xbar + xbar @ mats.A.T * dt + dw @ gain.T
        V = V + dt * (mats.A @ V + V @ mats.A.T + mats.E - gain @ gain.T)
    return y_out
