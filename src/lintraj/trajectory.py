"""Measurement records and the stochastic integrals that summarize them.

A record stores the ``2L`` current components sampled on a uniform grid; slice
``j`` covers ``[(j-1) dt, j dt)`` and its sample row multiplies propagator
blocks evaluated at ``t = j dt``.  All sums follow the Ito convention.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FilterDivergence
from .lie_rep import PropagatorBlocks, RepMatrix, flip, propagator_grid
from .parameterization import NoiseCouplings
from .system import SystemSpec


@dataclass(frozen=True)
class MeasurementRecord:
    """Sampled currents: y has shape (steps, 2L); y * dt is O(sqrt(dt))."""

    dt: float
    steps: int
    y: np.ndarray
    seed: int | None = None
    statistics_mode: str = "ostensible"

    @property
    def t_final(self) -> float:
        return self.dt * self.steps

    @property
    def times(self) -> np.ndarray:
        """Left endpoints of the slices."""
        return self.dt * np.arange(self.steps)


@dataclass(frozen=True)
class TrajectoryIntegrals:
    """The record summary (l', r', h) at elapsed time t.

    l_prime is a row of length 2N whose second half is the conjugate of the
    first; r_prime a column likewise; h the scalar Ito double integral.
    """

    n_modes: int
    t: float
    l_prime: np.ndarray
    r_prime: np.ndarray
    h: complex

    def check_pairing(self, tol: float = 1e-10) -> None:
        n = self.n_modes
        scale = max(1.0, np.abs(self.l_prime).max(), np.abs(self.r_prime).max())
        if (np.abs(self.l_prime[n:] - self.l_prime[:n].conj()).max(initial=0.0)
                > tol * scale or
                np.abs(self.r_prime[n:] - self.r_prime[:n].conj()).max(initial=0.0)
                > tol * scale):
            raise ValueError("integrals violate conjugate pairing")


def suggested_time_step(rep: RepMatrix, budget: float = 1e-3) -> float:
    """Step size keeping ||generator image|| * dt at the given budget."""
    norm = float(np.linalg.norm(rep.matrix, 2))
    if norm == 0.0:
        return budget
    return budget / norm


def sample_ostensible_record(spec: SystemSpec, dt: float, t_final: float,
                             seed: int | None = 0,
                             rng: np.random.Generator | None = None) -> MeasurementRecord:
    """Record drawn from the reference white-noise law: each monitored
    component of y*dt is i.i.d. Normal(0, dt); unmonitored components are zero."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    steps = int(round(t_final / dt))
    if rng is None:
        rng = np.random.default_rng(seed)
    y = np.zeros((steps, 2 * spec.n_channels))
    mask = spec.monitored
    y[:, mask] = rng.normal(size=(steps, int(mask.sum()))) / np.sqrt(dt)
    return MeasurementRecord(dt=dt, steps=steps, y=y, seed=seed,
                             statistics_mode="ostensible")


def sample_conditioned_record_gaussian(spec: SystemSpec, mean: np.ndarray,
                                       cov: np.ndarray, dt: float, t_final: float,
                                       seed: int | None = 0,
                                       rng: np.random.Generator | None = None,
                                       n_traj: int | None = None):
    """Records with the physical statistics of a Gaussian initial state.

    Runs the forward conditioned filter: y dt = 2 B xbar dt + dw with
    dw ~ Normal(0, dt) on monitored components.  With ``n_traj`` set, returns
    a (n_traj, steps, 2L) array of records sharing the deterministic
    covariance flow; otherwise a single MeasurementRecord.
    """
    from .adjoint_kalman import kalman_matrices

    if dt <= 0:
        raise ValueError("dt must be > 0")
    steps = int(round(t_final / dt))
    if rng is None:
        rng = np.random.default_rng(seed)
    mats = kalman_matrices(spec)
    mask = spec.monitored
    n2 = 2 * spec.n_modes
    single = n_traj is None
    m_traj = 1 if single else n_traj

    xbar = np.tile(np.asarray(mean, dtype=float), (m_traj, 1))
    V = np.asarray(cov, dtype=float).copy()
    y_out = np.zeros((m_traj, steps, 2 * spec.n_channels))
    two_b = 2.0 * mats.B
    for j in range(steps):
        gain = 2.0 * V @ mats.B.T - mats.S.T          # (2N, 2L)
        dw = np.zeros((m_traj, 2 * spec.n_channels))
        dw[:, mask] = rng.normal(size=(m_traj, int(mask.sum()))) * np.sqrt(dt)
        ydt = xbar @ two_b.T * dt + dw
        y_out[:, j, :] = ydt / dt
        xbar = xbar + xbar @ mats.A.T * dt + dw @ gain.T
        V = V + dt * (mats.A @ V + V @ mats.A.T + mats.E - gain @ gain.T)
        wmin = np.linalg.eigvalsh((V + V.T) / 2).min()
        if wmin < -1e-8:
            raise FilterDivergence(f"conditioned covariance eigenvalue {wmin:.2e}")
    if single:
        return MeasurementRecord(dt=dt, steps=steps, y=y_out[0], seed=seed,
                                 statistics_mode="conditioned")
    return y_out


class BlockTable:
    """Propagator blocks on the uniform grid t_j = j dt, j = 1..steps.

    Record-independent; built once per (spec, dt, steps) and shared across an
    ensemble.
    """

    def __init__(self, rep: RepMatrix, dt: float, steps: int):
        self.n_modes = rep.n_modes
        self.dt = dt
        self.steps = steps
        m = 2 * rep.n_modes
        grid = propagator_grid(rep, dt, steps)
        self.N11 = grid[:, 1:m + 1, 1:m + 1]
        self.N1m1 = grid[:, 1:m + 1, m + 1:2 * m + 1]
        self.Nm11 = grid[:, m + 1:2 * m + 1, 1:m + 1]
        self.Nm1m1 = grid[:, m + 1:2 * m + 1, m + 1:2 * m + 1]
        self.c = grid[:, 4 * rep.n_modes + 1, 0]

    def final_blocks(self) -> PropagatorBlocks:
        m = 2 * self.n_modes
        j = self.steps - 1
        zero_v = np.zeros(m, dtype=complex)
        return PropagatorBlocks(
            n_modes=self.n_modes, t=self.dt * self.steps,
            N11=self.N11[j], N1m1=self.N1m1[j], Nm11=self.Nm11[j],
            Nm1m1=self.Nm1m1[j], N10=zero_v, Nm10=zero_v.copy(),
            Nm01=zero_v.copy(), Nm0m1=zero_v.copy(), c=self.c[j],
        )


def accumulate_integrals(table: BlockTable, couplings: NoiseCouplings,
                         record: MeasurementRecord) -> TrajectoryIntegrals:
    """Ito sums of the reordered linear increments over one record."""
    l_p, r_p, h = accumulate_integrals_ensemble(table, couplings,
                                                record.y[None, :, :])
    out = TrajectoryIntegrals(n_modes=table.n_modes, t=record.t_final,
                              l_prime=l_p[0], r_prime=r_p[0], h=complex(h[0]))
    out.check_pairing()
    return out


def accumulate_integrals_ensemble(table: BlockTable, couplings: NoiseCouplings,
                                  y: np.ndarray):
    """Vectorized accumulation for an ensemble of records.

    Parameters
    ----------
    y : (n_traj, steps, 2L) array of current samples.

    Returns
    -------
    (l_prime, r_prime, h) with shapes (n_traj, 2N), (n_traj, 2N), (n_traj,).

    Per step: dl' = dl N11 + (J dr) Nm11 and dr' = J (N1m1^T dl + Nm1m1^T J dr);
    h accumulates dl'_j . (sum_{k<j} dr'_k) + (1/2) dl'_j . dr'_j.  The 1/2 on
    the diagonal Ito sum is fixed by requiring the state norm to reproduce the
    record probability (equivalently, by composing the linear factors pairwise
    and normal ordering the total at the end).
    """
    if not np.all(np.isfinite(y)):
        raise ValueError("record contains non-finite entries")
    steps = y.shape[1]
    if steps != table.steps:
        raise DimensionMismatch("record and block table use different grids")
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


def stochastic_d(integrals: TrajectoryIntegrals, lpp_full: np.ndarray) -> np.ndarray:
    """POVM summary vector: d = l'^dag + 2 Lpp^dag r'* + (1 + 2 Lpp_breve) r',
    built from the physical-mode halves."""
    n = integrals.n_modes
    lpp = lpp_full[:n, :n]
    lpp_breve = lpp_full[:n, n:]
    l_phys = integrals.l_prime[:n]
    r_phys = integrals.r_prime[:n]
    return (l_phys.conj() + 2.0 * lpp.conj().T @ r_phys.conj()
            + (np.eye(n) + 2.0 * lpp_breve) @ r_phys)


def record_to_csv(record: MeasurementRecord, path: str, header_comment: str = "") -> None:
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        n_cols = record.y.shape[1]
        writer.writerow(["t"] + [f"y_{k + 1}" for k in range(n_cols)])
        for t, row in zip(record.times, record.y):
            writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])


def record_from_csv(path: str, dt: float | None = None) -> MeasurementRecord:
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rows.append(line.strip().split(","))
    header, data = rows[0], rows[1:]
    if header[0] != "t":
        raise ValueError("record CSV must start with a 't' column")
    times = np.array([float(r[0]) for r in data])
    y = np.array([[float(v) for v in r[1:]] for r in data])
    if dt is None:
        dt = float(times[1] - times[0]) if len(times) > 1 else float(times[0])
    return MeasurementRecord(dt=dt, steps=len(data), y=y)


def integrals_to_json(integrals: TrajectoryIntegrals,
                      d: np.ndarray | None = None) -> dict:
    out = {
        "t": integrals.t,
        "l_prime_re": integrals.l_prime.real.tolist(),
        "l_prime_im": integrals.l_prime.imag.tolist(),
        "r_prime_re": integrals.r_prime.real.tolist(),
        "r_prime_im": integrals.r_prime.imag.tolist(),
        "h_re": float(np.real(integrals.h)),
        "h_im": float(np.imag(integrals.h)),
    }
    if d is not None:
        out["d_re"] = np.asarray(d).real.tolist()
        out["d_im"] = np.asarray(d).imag.tolist()
    return out
