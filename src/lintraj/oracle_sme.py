"""Brute-force truncated-Fock integrators that the CLI runs as cross-checks.

Euler-Maruyama for the linear stochastic master equation driven by a given
record (``lintraj compare`` and ``simulate --compare-oracle``), classical RK4
for the deterministic master equation (``lintraj me``).  These are
deliberately simple; they validate the analytic pipeline and are not tuned
for large truncations.  The nonlinear (normalized) SME lives beside the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import TruncationOverflow
from .state_engine import FockDensityMatrix, _mode_lowering
from .system import SystemSpec
from .trajectory import MeasurementRecord

# largest relative population of a top Fock level in a final oracle state
TAIL_TOL = 1e-6


def build_operators(spec: SystemSpec, dim: int):
    """(H, lindblad list, measurement-operator dict) on the truncation.

    With the 2N quadratures stacked as one (2N, d, d) array X,
    H = (1/2) sum_mp G_mp X_m X_p, c_k = sum_m C_km X_m, and measurement
    operator k is the k-th component of M^dag c; only monitored components
    are materialized.
    """
    n = spec.n_modes
    a = np.array(_mode_lowering(n, dim))
    ad = a.conj().transpose(0, 2, 1)
    x = (np.stack([a + ad, 1j * (ad - a)], axis=1) / np.sqrt(2.0)).reshape(
        2 * n, *a.shape[1:])
    # sum_m X_m (G X)_m as one product of the side-by-side X_m with the
    # stacked (G X)_m
    H = 0.5 * (np.concatenate(x, axis=1)
               @ np.concatenate(np.tensordot(spec.G, x, axes=1), axis=0))
    c = np.tensordot(spec.C, x, axes=1)
    monitored = np.flatnonzero(spec.monitored)
    meas = np.tensordot(spec.M.conj().T[monitored], c, axes=1)
    return H, list(c), dict(zip(monitored.tolist(), meas))


def _lindblad_rhs(H, c_ops, cdc_list, rho):
    out = -1j * (H @ rho - rho @ H)
    for ck, cdck in zip(c_ops, cdc_list):
        out += ck @ rho @ ck.conj().T - 0.5 * (cdck @ rho + rho @ cdck)
    return out


def _check_tail(rho, n_modes, dim, where):
    tail = FockDensityMatrix(n_modes=n_modes, dim_per_mode=dim,
                             rho=rho).tail_mass()
    if not tail <= TAIL_TOL:      # a NaN tail fails too
        raise TruncationOverflow(f"tail population {tail:.3e} at {where}")


def integrate_linear_sme(spec: SystemSpec, rho0: FockDensityMatrix,
                         record: MeasurementRecord) -> FockDensityMatrix:
    """Unnormalized state driven by a supplied record (Euler-Maruyama).

    The measurement term is y^T dt (v_k rho + rho v_k^dag) over monitored
    components; Hermitian symmetrization is applied each step as a numerical
    regularizer.
    """
    dim = rho0.dim_per_mode
    H, c_ops, meas_ops = build_operators(spec, dim)
    cdc = [ck.conj().T @ ck for ck in c_ops]
    rho = rho0.rho.astype(complex).copy()
    dt = record.dt
    for j in range(record.steps):
        drho = _lindblad_rhs(H, c_ops, cdc, rho) * dt
        for k, vk in meas_ops.items():
            ydt = record.y[j, k] * dt
            if ydt != 0.0:
                drho += ydt * (vk @ rho + rho @ vk.conj().T)
        rho = rho + drho
        rho = 0.5 * (rho + rho.conj().T)
    _check_tail(rho, spec.n_modes, dim, f"t={record.t_final}")
    return FockDensityMatrix(n_modes=spec.n_modes, dim_per_mode=dim, rho=rho)


def integrate_me(spec: SystemSpec, rho0: FockDensityMatrix, t_final: float,
                 dt: float = 1e-3, observables: dict | None = None):
    """Deterministic master equation via RK4. With ``observables`` given,
    returns (final state, {name: series}) sampled every step."""
    dim = rho0.dim_per_mode
    H, c_ops, _ = build_operators(spec, dim)
    cdc = [ck.conj().T @ ck for ck in c_ops]
    rho = rho0.rho.astype(complex).copy()
    steps = int(round(t_final / dt))
    series = {name: [np.trace(op @ rho)] for name, op in (observables or {}).items()}
    for _ in range(steps):
        k1 = _lindblad_rhs(H, c_ops, cdc, rho)
        k2 = _lindblad_rhs(H, c_ops, cdc, rho + 0.5 * dt * k1)
        k3 = _lindblad_rhs(H, c_ops, cdc, rho + 0.5 * dt * k2)
        k4 = _lindblad_rhs(H, c_ops, cdc, rho + dt * k3)
        rho = rho + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        for name, op in (observables or {}).items():
            series[name].append(np.trace(op @ rho))
    _check_tail(rho, spec.n_modes, dim, f"t={t_final}")
    final = FockDensityMatrix(n_modes=spec.n_modes, dim_per_mode=dim, rho=rho)
    if observables:
        return final, {k: np.array(v) for k, v in series.items()}
    return final
