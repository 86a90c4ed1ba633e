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


def _check_tail(rho, n_modes, dim, where):
    tail = FockDensityMatrix(n_modes=n_modes, dim_per_mode=dim,
                             rho=rho).tail_mass()
    if tail > TAIL_TOL:
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
