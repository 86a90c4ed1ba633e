"""Brute-force truncated-Fock integrators used as correctness oracles.

Euler-Maruyama for the stochastic equations, classical RK4 for the
deterministic master equation.  These are deliberately simple; they validate
the analytic pipeline and are not tuned for large truncations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationOverflow
from .state_engine import FockDensityMatrix, _mode_lowering
from .system import SystemSpec
from .trajectory import MeasurementRecord


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_final: float
    fock_dim: int
    tail_tol: float = 1e-6
    seed: int | None = 0

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.dt))


def build_operators(spec: SystemSpec, dim: int):
    """(H, lindblad list, measurement-operator list) on the truncation.

    Measurement operator k is the k-th component of M^dag c; only monitored
    components are materialized.
    """
    n = spec.n_modes
    a_ops = [op.toarray() for op in _mode_lowering(n, dim)]
    d = dim ** n
    x_ops = []
    for i in range(n):
        x_ops.append((a_ops[i] + a_ops[i].conj().T) / np.sqrt(2.0))
        x_ops.append(1j * (a_ops[i].conj().T - a_ops[i]) / np.sqrt(2.0))
    H = np.zeros((d, d), dtype=complex)
    for m in range(2 * n):
        for p in range(2 * n):
            if spec.G[m, p] != 0:
                H += 0.5 * spec.G[m, p] * (x_ops[m] @ x_ops[p])
    c_ops = []
    for k in range(spec.n_channels):
        ck = np.zeros((d, d), dtype=complex)
        for m in range(2 * n):
            if spec.C[k, m] != 0:
                ck += spec.C[k, m] * x_ops[m]
        c_ops.append(ck)
    mdc = spec.M.conj().T  # (2L, L)
    meas_ops = {}
    for k in np.flatnonzero(spec.monitored):
        vk = np.zeros((d, d), dtype=complex)
        for j in range(spec.n_channels):
            if mdc[k, j] != 0:
                vk += mdc[k, j] * c_ops[j]
        meas_ops[int(k)] = vk
    return H, c_ops, meas_ops


def _lindblad_rhs(H, c_ops, cdc_list, rho):
    out = -1j * (H @ rho - rho @ H)
    for ck, cdck in zip(c_ops, cdc_list):
        out += ck @ rho @ ck.conj().T - 0.5 * (cdck @ rho + rho @ cdck)
    return out


def _check_tail(rho, n_modes, dim, tail_tol, where):
    state = FockDensityMatrix(n_modes=n_modes, dim_per_mode=dim, rho=rho,
                              is_normalized=False)
    tail = state.tail_mass()
    if tail > tail_tol:
        raise TruncationOverflow(f"tail population {tail:.3e} at {where}")


def integrate_linear_sme(spec: SystemSpec, rho0: FockDensityMatrix,
                         record: MeasurementRecord,
                         tail_tol: float = 1e-6,
                         store_trajectory: bool = False):
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
    traj = [rho.copy()] if store_trajectory else None
    for j in range(record.steps):
        drho = _lindblad_rhs(H, c_ops, cdc, rho) * dt
        for k, vk in meas_ops.items():
            ydt = record.y[j, k] * dt
            if ydt != 0.0:
                drho += ydt * (vk @ rho + rho @ vk.conj().T)
        rho = rho + drho
        rho = 0.5 * (rho + rho.conj().T)
        if store_trajectory:
            traj.append(rho.copy())
    _check_tail(rho, spec.n_modes, dim, tail_tol, f"t={record.t_final}")
    final = FockDensityMatrix(n_modes=spec.n_modes, dim_per_mode=dim, rho=rho,
                              is_normalized=False)
    return (final, traj) if store_trajectory else final


def integrate_nonlinear_sme(spec: SystemSpec, rho0: FockDensityMatrix,
                            config: IntegratorConfig,
                            rng: np.random.Generator | None = None):
    """Normalized conditioned state; generates the record internally.

    y dt = <v_k + v_k^dag> dt + dw_k on monitored components, dw ~ N(0, dt).
    Returns (final normalized state, record).
    """
    dim = rho0.dim_per_mode
    if rng is None:
        rng = np.random.default_rng(config.seed)
    H, c_ops, meas_ops = build_operators(spec, dim)
    cdc = [ck.conj().T @ ck for ck in c_ops]
    rho = rho0.rho.astype(complex).copy()
    rho = rho / np.trace(rho).real
    dt = config.dt
    y = np.zeros((config.steps, 2 * spec.n_channels))
    for j in range(config.steps):
        drho = _lindblad_rhs(H, c_ops, cdc, rho) * dt
        for k, vk in meas_ops.items():
            mean_k = np.real(np.trace(vk @ rho + rho @ vk.conj().T))
            dw = rng.normal() * np.sqrt(dt)
            y[j, k] = mean_k + dw / dt
            sandwich = vk @ rho + rho @ vk.conj().T
            drho += dw * (sandwich - mean_k * rho)
        rho = rho + drho
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
    _check_tail(rho, spec.n_modes, dim, config.tail_tol, f"t={config.t_final}")
    record = MeasurementRecord(dt=dt, steps=config.steps, y=y)
    final = FockDensityMatrix(n_modes=spec.n_modes, dim_per_mode=dim, rho=rho)
    return final, record


def integrate_me(spec: SystemSpec, rho0: FockDensityMatrix, t_final: float,
                 dt: float = 1e-3, tail_tol: float = 1e-6,
                 observables: dict | None = None):
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
    _check_tail(rho, spec.n_modes, dim, tail_tol, f"t={t_final}")
    final = FockDensityMatrix(n_modes=spec.n_modes, dim_per_mode=dim, rho=rho)
    if observables:
        return final, {k: np.array(v) for k, v in series.items()}
    return final
