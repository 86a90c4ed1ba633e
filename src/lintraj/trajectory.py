"""Measurement records and the stochastic integrals that summarize them.

A record stores the ``2L`` current components sampled on a uniform grid; slice
``j`` covers ``[(j-1) dt, j dt)`` and its sample row multiplies propagator
blocks evaluated at ``t = j dt``.  All sums follow the Ito convention.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, MatrixExpFailure
from .lie_rep import PropagatorBlocks, RepMatrix, flip, propagator_powers
from .parameterization import NoiseCouplings
from .system import SystemSpec

# (record, step) pairs per chunk of accumulate_integrals_ensemble: a few MB of
# temporaries, large enough that each chunk is a handful of vectorized passes
_STREAM_CHUNK = 2 ** 16
# rows per formatted block of record_to_csv: ~0.3 MB of transient Python
# floats and text at 2L = 4, far below the peak memory of any command
_CSV_BLOCK = 1024


@dataclass(frozen=True)
class MeasurementRecord:
    """Sampled currents: y has shape (steps, 2L); y * dt is O(sqrt(dt))."""

    dt: float
    steps: int
    y: np.ndarray

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
    return MeasurementRecord(dt=dt, steps=steps, y=y)


def sample_conditioned_record_gaussian(spec: SystemSpec, mean: np.ndarray,
                                       cov: np.ndarray, dt: float, t_final: float,
                                       seed: int | None = 0,
                                       rng: np.random.Generator | None = None,
                                       n_traj: int | None = None):
    """Records with the physical statistics of a Gaussian initial state.

    Runs the forward conditioned filter: y dt = 2 B xbar dt + dw with
    dw ~ Normal(0, dt) on monitored components, over the record-independent
    covariance flow :func:`~lintraj.adjoint_kalman.forward_covariance_flow`.
    With ``n_traj`` set, returns a (n_traj, steps, 2L) array of records
    sharing that flow; otherwise a single MeasurementRecord.
    """
    from .adjoint_kalman import forward_covariance_flow, kalman_matrices

    if dt <= 0:
        raise ValueError("dt must be > 0")
    steps = int(round(t_final / dt))
    if rng is None:
        rng = np.random.default_rng(seed)
    mats = kalman_matrices(spec)
    gains, _ = forward_covariance_flow(mats, cov, dt, steps)
    mask = spec.monitored
    single = n_traj is None
    m_traj = 1 if single else n_traj

    xbar = np.tile(np.asarray(mean, dtype=float), (m_traj, 1))
    # time-major, so each step fills one contiguous slab; the ensemble is
    # returned as a (n_traj, steps, 2L) view of it
    y_out = np.zeros((steps, m_traj, 2 * spec.n_channels))
    dw = np.zeros((m_traj, 2 * spec.n_channels))
    two_b = 2.0 * mats.B
    for j in range(steps):
        dw[:, mask] = rng.normal(size=(m_traj, int(mask.sum()))) * np.sqrt(dt)
        y_out[j] = (xbar @ two_b.T * dt + dw) / dt
        xbar = xbar + xbar @ mats.A.T * dt + dw @ gains[j].T
    if single:
        return MeasurementRecord(dt=dt, steps=steps, y=y_out[:, 0])
    return y_out.transpose(1, 0, 2)


class BlockTable:
    """Propagator blocks on the uniform grid t_j = j dt, j = 1..steps.

    Record-independent; built once per (spec, dt, steps) and shared across an
    ensemble.  Only the four inner blocks and the scalar corner c are kept,
    not the whole (steps, 4N+2, 4N+2) grid of propagators, which for one mode
    is more than twice as large.
    """

    def __init__(self, rep: RepMatrix, dt: float, steps: int):
        self.n_modes = rep.n_modes
        self.dt = dt
        self.steps = steps
        m = 2 * rep.n_modes
        inner = np.empty((steps, 2 * m, 2 * m), dtype=complex)
        self.c = np.empty(steps, dtype=complex)
        for j0, chunk in propagator_powers(rep, dt, steps):
            inner[j0:j0 + len(chunk)] = chunk[:, 1:-1, 1:-1]
            self.c[j0:j0 + len(chunk)] = chunk[:, -1, 0]
        if not (np.all(np.isfinite(inner)) and np.all(np.isfinite(self.c))):
            raise MatrixExpFailure("non-finite entries in propagator grid")
        self.N11 = inner[:, :m, :m]
        self.N1m1 = inner[:, :m, m:]
        self.Nm11 = inner[:, m:, :m]
        self.Nm1m1 = inner[:, m:, m:]

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


def checked_currents(y, n_columns: int) -> np.ndarray:
    """``y`` as an array of current samples with ``n_columns`` columns on
    its last axis.  ValueError for complex or non-finite entries,
    DimensionMismatch for any other column count."""
    y = np.asarray(y)
    if np.iscomplexobj(y):
        raise ValueError("record currents must be real")
    if not np.all(np.isfinite(y)):
        raise ValueError("record contains non-finite entries")
    if y.shape[-1] != n_columns:
        raise DimensionMismatch(f"record has {y.shape[-1]} current columns; "
                                f"the system has {n_columns}")
    return y


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
    y : (n_traj, steps, 2L) array of real current samples.

    Returns
    -------
    (l_prime, r_prime, h) with shapes (n_traj, 2N), (n_traj, 2N), (n_traj,).

    Per step: dl' = dl N11 + (J dr) Nm11 and dr' = J (N1m1^T dl + Nm1m1^T J dr);
    h accumulates dl'_j . (sum_{k<j} dr'_k) + (1/2) dl'_j . dr'_j.  The 1/2 on
    the diagonal Ito sum is fixed by requiring the state norm to reproduce the
    record probability (equivalently, by composing the linear factors pairwise
    and normal ordering the total at the end).

    Both increments are linear in the record with record-independent per-step
    kernels, dl'_j = y_j KL_j and dr'_j = y_j KR_j, where
    KL_j = dt (W_l N11_j + W_r J^T Nm11_j) and
    KR_j = dt (W_l N1m1_j + W_r J^T Nm1m1_j) J^T.  The kernels are folded once
    per call, over only the current columns with a nonzero coupling row.  The
    record is then streamed in time chunks of about ``_STREAM_CHUNK`` (record,
    step) pairs, carrying l', r' (the running sum_{k<j} dr'_k) and h across
    chunks, so no (n_traj, steps, 2N) array is ever formed.
    """
    y = checked_currents(y, couplings.W_l.shape[0])
    n_traj, steps = y.shape[:2]
    if steps != table.steps:
        raise DimensionMismatch("record and block table use different grids")
    m = 2 * table.n_modes
    J = flip(m)
    cols = np.flatnonzero(np.any(couplings.W_l != 0, axis=1)
                          | np.any(couplings.W_r != 0, axis=1))
    w_l = couplings.W_l[cols]
    w_rj = couplings.W_r[cols] @ J.T
    kernels = np.empty((steps, len(cols), 2 * m), dtype=complex)   # [KL | KR]
    kernels[:, :, :m] = table.dt * (w_l @ table.N11 + w_rj @ table.Nm11)
    kernels[:, :, m:] = table.dt * (w_l @ table.N1m1 + w_rj @ table.Nm1m1) @ J.T
    # real record times the real view of the complex kernels: each product row
    # reads back as the complex increments [dl' | dr'] without a copy
    kernels_re = kernels.view(float)

    l_prime = np.zeros((n_traj, m), dtype=complex)
    r_prime = np.zeros((n_traj, m), dtype=complex)
    h = np.zeros(n_traj, dtype=complex)
    span = max(1, _STREAM_CHUNK // max(1, n_traj))
    for j0 in range(0, steps, span):
        j1 = min(j0 + span, steps)
        # time-major (T, n_traj, 2m): the running sum is along the first axis
        inc = np.matmul(y[:, j0:j1, cols].transpose(1, 0, 2),
                        kernels_re[j0:j1]).view(complex)
        dl_p, dr_p = inc[..., :m], inc[..., m:]
        # C_j + dr'_j / 2, with C_j = sum_{k<j} dr'_k over all earlier steps
        mid = np.cumsum(dr_p, axis=0)
        mid -= 0.5 * dr_p
        mid += r_prime
        h += np.einsum("tsm,tsm->s", dl_p, mid)
        l_prime += dl_p.sum(axis=0)
        r_prime += dr_p.sum(axis=0)
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
    """Write ``t, y_1 .. y_2L`` rows with 17 significant digits, so that
    :func:`record_from_csv` reads the currents back bitwise."""
    n_cols = record.y.shape[1]
    rows = np.column_stack([record.times, record.y])
    row_fmt = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(["t"] + [f"y_{k + 1}" for k in range(n_cols)]) + "\r\n")
        # one % format per block of rows: the bytes np.savetxt(fmt="%.17g",
        # delimiter=",", newline="\r\n") writes, without its per-row loop
        for i in range(0, len(rows), _CSV_BLOCK):
            block = rows[i:i + _CSV_BLOCK]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def record_from_csv(path: str) -> MeasurementRecord:
    """Read a :func:`record_to_csv` file.  dt is the spacing of its ``t``
    column.  ConfigError on a malformed file: no leading ``t`` column, ragged
    or non-numeric rows, a non-finite cell, fewer than two rows, or a ``t``
    column that is not increasing and uniformly spaced."""
    with open(path) as fh:
        header = next((line for line in fh if not line.startswith("#")), "")
        if header.strip().split(",")[0] != "t":
            raise ConfigError(f"record CSV {path} must start with a 't' column")
        try:
            # loadtxt warns on an empty body; that case is raised below
            with warnings.catch_warnings(action="ignore"):
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"malformed record CSV {path}: {exc}") from None
    if len(data) < 2:
        raise ConfigError(f"record CSV {path} needs at least two data rows "
                          f"to fix dt, has {len(data)}")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"record CSV {path} has non-finite entries")
    times, y = data[:, 0], data[:, 1:]
    dt = float(times[1] - times[0])
    # times written by record_to_csv differ from j * dt by rounding only
    if not (dt > 0 and np.all(np.abs(np.diff(times) - dt) <= 1e-6 * dt)):
        raise ConfigError(f"record CSV {path}: the t column is not increasing "
                          "and uniformly spaced")
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
