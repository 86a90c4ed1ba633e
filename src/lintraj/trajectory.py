"""Measurement records and the stochastic integrals that summarize them.

A record stores the ``2L`` current components sampled on a uniform grid; slice
``j`` covers ``[(j-1) dt, j dt)`` and its sample row multiplies propagator
blocks evaluated at ``t = j dt``.  All sums follow the Ito convention.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    CrossCheckFailure,
    DimensionMismatch,
    MatrixExpFailure,
    ParameterOutOfRange,
)
from ._linalg import expm_table
from .lie_rep import PropagatorBlocks, RepMatrix
from .parameterization import NoiseCouplings
from .system import SystemSpec

# steps per block of the causal scan in accumulate_integrals_ensemble
_SCAN_BLOCK = 8
# (record, step) pairs per group of scan blocks in accumulate_integrals_ensemble.
# A group holds the gathered (S, steps, k) record slab, its steps' kernels
# [KL | KR], each block's summed [dl' | dr'] per record, the record times each
# block's masked (8k, 8k) matrix M_c, and the M_c themselves, which are
# budgeted as 16k records each: a few MB of temporaries, large enough that
# each group is a handful of GEMM stacks
_STREAM_CHUNK = 2 ** 16
# rows per formatted block of record_to_csv: ~0.3 MB of transient Python
# floats and text at 2L = 4, far below the peak memory of any command
_CSV_BLOCK = 1024
# relative bound on the conjugate-pairing residual of (l', r')
PAIRING_TOL = 1e-10


@dataclass(frozen=True)
class MeasurementRecord:
    """Sampled currents: y has shape (steps, 2L); y * dt is O(sqrt(dt))."""

    dt: float
    y: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.y)

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


def _pairing_residuals(l_prime: np.ndarray, r_prime: np.ndarray) -> np.ndarray:
    """Each record's relative residual by which the second half of l' or r'
    misses the conjugate of its first half: the halves are two routes to one
    conjugate pair.  l_prime and r_prime are (..., 2N)."""
    pair = np.stack([l_prime, r_prime], axis=-2)
    n = pair.shape[-1] // 2
    gap = np.abs(pair[..., n:] - pair[..., :n].conj()).max(axis=(-2, -1))
    return gap / np.maximum(1.0, np.abs(pair).max(axis=(-2, -1)))


def _sampled_steps(dt: float, t_final: float) -> int:
    """Slices of a sampled record; ParameterOutOfRange for a dt that is
    non-finite or not positive and a t_final that is non-finite or shorter
    than one step."""
    if not (np.isfinite(dt) and dt > 0):
        raise ParameterOutOfRange(f"dt must be finite and > 0, got {dt!r}")
    if not (np.isfinite(t_final / dt) and round(t_final / dt) >= 1):
        raise ParameterOutOfRange(f"t_final must be finite and at least one "
                                  f"step dt = {dt!r}, got {t_final!r}")
    return int(round(t_final / dt))


def sample_ostensible_record(spec: SystemSpec, dt: float, t_final: float,
                             seed: int | None = 0,
                             rng: np.random.Generator | None = None) -> MeasurementRecord:
    """Record drawn from the reference white-noise law: each monitored
    component of y*dt is i.i.d. Normal(0, dt); unmonitored components are
    zero.  ParameterOutOfRange for a non-finite or non-positive dt and a
    non-finite t_final or one shorter than one step."""
    steps = _sampled_steps(dt, t_final)
    if rng is None:
        rng = np.random.default_rng(seed)
    y = np.zeros((steps, 2 * spec.n_channels))
    mask = spec.monitored
    y[:, mask] = rng.normal(size=(steps, int(mask.sum()))) / np.sqrt(dt)
    return MeasurementRecord(dt=dt, y=y)


def sample_conditioned_record_gaussian(spec: SystemSpec, mean: np.ndarray,
                                       cov: np.ndarray, dt: float, t_final: float,
                                       seed: int | None = 0,
                                       rng: np.random.Generator | None = None,
                                       n_traj: int | None = None):
    """Records with the physical statistics of a Gaussian initial state.

    Runs the forward conditioned filter: y dt = 2 B xbar dt + dw with
    dw = sqrt(dt) xi, xi ~ Normal(0, 1) on the k monitored components, over
    the record-independent covariance flow
    :func:`~lintraj.adjoint_kalman.forward_covariance_flow`.  With ``n_traj``
    set, returns the (n_traj, steps, 2L) records sharing that flow;
    otherwise a single MeasurementRecord.  Either is a view of one zeroed
    (steps, records) plane per current column.

    The gains are record-independent, so each step advances every record's
    z = [xbar | xi] with one product, xbar <- z [[1 + A^T dt]; sqrt(dt) G^T],
    G the gain's monitored columns.  The noise is drawn a chunk of steps at a
    time: one ``standard_normal`` of (steps, records, k) is the same numbers,
    in the same order, as one draw of (records, k) per step.  A chunk's
    currents are one product z [[2 B^T]; 1 / sqrt(dt)] written to the
    monitored planes only.  The unmonitored planes are never written, so
    their pages are never touched: at 1000 optomech records of 2000 steps,
    4 of the record's 6 planes (64 of 96 MB) never become resident.  A
    chunk spans about ``_STREAM_CHUNK`` entries of z.

    DimensionMismatch for a mean that is not (2N,) or a cov that is not
    (2N, 2N).  ParameterOutOfRange for a complex or non-finite mean or cov,
    a dt that is non-finite or not positive, a t_final that is non-finite or
    shorter than one step, and an n_traj that is not a positive integer.
    """
    from .adjoint_kalman import forward_covariance_flow, kalman_matrices

    n2 = 2 * spec.n_modes
    mean, cov = np.asarray(mean), np.asarray(cov)
    if mean.shape != (n2,) or cov.shape != (n2, n2):
        raise DimensionMismatch(f"mean {mean.shape} and cov {cov.shape} must "
                                f"be ({n2},) and ({n2}, {n2})")
    for name, value in (("mean", mean), ("cov", cov)):
        if np.iscomplexobj(value) or not np.isfinite(value).all():
            raise ParameterOutOfRange(f"{name} must be real and finite")
    steps = _sampled_steps(dt, t_final)
    if n_traj is not None and not (isinstance(n_traj, (int, np.integer))
                                   and n_traj > 0):
        raise ParameterOutOfRange(f"n_traj must be a positive integer, "
                                  f"got {n_traj!r}")
    if rng is None:
        rng = np.random.default_rng(seed)
    mats = kalman_matrices(spec)
    cols = np.flatnonzero(spec.monitored)
    k = len(cols)
    gains = forward_covariance_flow(mats, cov, dt, steps)[0][:, :, cols]
    m_traj = 1 if n_traj is None else n_traj

    step = np.empty((steps, n2 + k, n2))
    step[:, :n2] = np.eye(n2) + dt * mats.A.T
    step[:, n2:] = np.sqrt(dt) * gains.transpose(0, 2, 1)
    emit = np.vstack([2.0 * mats.B[cols].T, np.eye(k) / np.sqrt(dt)])
    planes = np.zeros((2 * spec.n_channels, steps, m_traj))
    chunk = min(steps, max(1, _STREAM_CHUNK // (m_traj * (n2 + k))))
    z = np.empty((chunk + 1, m_traj, n2 + k))
    z[0, :, :n2] = mean
    for j0 in range(0, steps, chunk):
        c = min(chunk, steps - j0)
        z[:c, :, n2:] = rng.standard_normal(size=(c, m_traj, k))
        for i in range(c):
            np.matmul(z[i], step[j0 + i], out=z[i + 1, :, :n2])
        planes[cols, j0:j0 + c] = (z[:c] @ emit).transpose(2, 0, 1)
        z[0, :, :n2] = z[c, :, :n2]
    y_out = planes.transpose(2, 1, 0)
    if n_traj is None:
        return MeasurementRecord(dt=dt, y=y_out[0])
    return y_out


class BlockTable:
    """Propagator blocks on the uniform grid t_j = j dt, j = 1..steps, in
    factored form; record-independent, built once per (spec, dt, steps).

    The propagator at t_j is P^j, P = expm(rep dt).  Every generator image
    has a zero first row and last column, so inner 4N x 4N blocks multiply
    as the whole matrices do.  With C = ceil(sqrt(steps)), the inner block
    at t = (qC + i + 1) dt is ``powers[i] @ bases[q]``: ``powers`` holds
    those of P^1..P^C, ``bases`` those of P^(qC), and ``final`` is the whole
    propagator at t = steps dt.  Each is its own exponential expm(rep j dt),
    not a product of j rounded steps, whose error grows with j.  No
    attribute has a per-step axis.  No eigendecomposition: every generator
    image is defective (its nonzero corner entry joins the two zero
    eigenvalues into a Jordan block), so its eigenvectors are never well
    conditioned.

    ParameterOutOfRange for a dt that is not finite and > 0 or steps that
    is not a positive integer; MatrixExpFailure if a factor overflows.
    """

    def __init__(self, rep: RepMatrix, dt: float, steps: int):
        if not (np.isfinite(dt) and dt > 0):
            raise ParameterOutOfRange(f"dt must be finite and > 0, got {dt!r}")
        if not (isinstance(steps, (int, np.integer)) and steps > 0):
            raise ParameterOutOfRange(f"steps must be a positive integer, "
                                      f"got {steps!r}")
        self.n_modes = rep.n_modes
        self.dt = dt
        self.steps = steps
        powers, bases, self.final = expm_table(rep.matrix, dt, steps,
                                               np.s_[1:-1, 1:-1])
        # P^1..P^C, and the bases up to the one the last step reaches
        self.powers = powers[1:]
        self.bases = bases[:(steps - 1) // len(self.powers) + 1]
        if not all(np.isfinite(a).all() for a in (powers, bases, self.final)):
            raise MatrixExpFailure("non-finite propagator powers")

    def final_blocks(self) -> PropagatorBlocks:
        return PropagatorBlocks.from_matrix(self.n_modes, self.dt * self.steps,
                                            self.final)


def checked_currents(y, n_columns: int) -> np.ndarray:
    """``y`` as an array of current samples with ``n_columns`` columns on
    its last axis and time on the one before.  ValueError for complex or
    non-finite entries, DimensionMismatch for any other column count.
    Finiteness is checked ``_STREAM_CHUNK // records`` steps at a time, so
    no temporary the size of the record is formed."""
    y = np.asarray(y)
    if np.iscomplexobj(y):
        raise ValueError("record currents must be real")
    y2 = np.atleast_2d(y)
    chunk = max(1, _STREAM_CHUNK // max(1, int(np.prod(y2.shape[:-2]))))
    for j in range(0, y2.shape[-2], chunk):
        if not np.isfinite(y2[..., j:j + chunk, :]).all():
            raise ValueError("record contains non-finite entries")
    if y.shape[-1] != n_columns:
        raise DimensionMismatch(f"record has {y.shape[-1]} current columns; "
                                f"the system has {n_columns}")
    return y


def accumulate_integrals(table: BlockTable, couplings: NoiseCouplings,
                         record: MeasurementRecord) -> TrajectoryIntegrals:
    """Ito sums of the reordered linear increments over one record.
    DimensionMismatch if the record's dt is not the table's."""
    if abs(record.dt - table.dt) > 1e-9 * table.dt:
        raise DimensionMismatch(f"record dt {record.dt!r} differs from the "
                                f"block table's dt {table.dt!r}")
    l_p, r_p, h = accumulate_integrals_ensemble(table, couplings,
                                                record.y[None, :, :])
    return TrajectoryIntegrals(n_modes=table.n_modes, t=record.t_final,
                               l_prime=l_p[0], r_prime=r_p[0], h=complex(h[0]))


# a record too large for the floats overflows h silently; the effect and the
# state engine name their own non-finite results
@np.errstate(over="ignore", invalid="ignore")
def accumulate_integrals_ensemble(table: BlockTable, couplings: NoiseCouplings,
                                  y: np.ndarray):
    """Vectorized accumulation for an ensemble of records.

    Parameters
    ----------
    y : (n_traj, steps, 2L) array of real current samples.

    Returns
    -------
    (l_prime, r_prime, h) with shapes (n_traj, 2N), (n_traj, 2N), (n_traj,).
    CrossCheckFailure for the first record whose halves of l' or r' miss
    their conjugate pairing by more than ``PAIRING_TOL`` relative; with
    several records, the message names it as ``record i``.

    Per step: dl' = dl N11 + (J dr) Nm11 and dr' = J (N1m1^T dl + Nm1m1^T J dr);
    h accumulates dl'_j . (sum_{k<j} dr'_k) + (1/2) dl'_j . dr'_j.  The 1/2 on
    the diagonal Ito sum is fixed by requiring the state norm to reproduce the
    record probability (equivalently, by composing the linear factors pairwise
    and normal ordering the total at the end).

    Both increments are linear in the record with record-independent per-step
    kernels, dl'_j = y_j KL_j and dr'_j = y_j KR_j, where
    KL_j = dt (W_l N11_j + W_r J^T Nm11_j) and
    KR_j = dt (W_l N1m1_j + W_r J^T Nm1m1_j) J^T, over only the k current
    columns with a nonzero coupling row.  With W = [W_l | W_r J^T], the
    table's factors give [KL_j | KR_j J] = dt W P^i B^q: dt W P^i is folded
    once per call, and each group of the scan below forms its own kernels
    with one product of the fold per base B^q that its steps reach
    (right-half columns reversed).

    Blocked causal scan (prefix sums as block products, Blelloch 1990): cut
    the grid into blocks c of ``_SCAN_BLOCK`` steps and let y_c be a record's
    (8k,) slab of block c.  Then dl'_c = y_c KL_c and dr'_c = y_c KR_c are
    one GEMM of the record slabs against the stacked kernels [KL_c | KR_c],
    and

        h = sum_c [ y_c M_c y_c^T + dl'_c . R'_{<c} ],

    where R'_{<c} = sum_{c' < c} dr'_{c'} and M_c, with (j, i) block
    w_ji KL_j KR_i^T (w = 1 for i < j, 1/2 for i = j, 0 for i > j), carries
    the pairs within the block.  M_c is record-independent; it is built per
    group of blocks of about ``_STREAM_CHUNK`` (record, step) pairs, and l',
    r' (the running R') and h are carried across groups, so no
    (n_traj, steps, 2N) array, per-step kernel array or all-grid M is ever
    formed.  The record is read a group of steps at a time, in any memory
    layout: the sampler's column planes or a C-order array.
    """
    y = checked_currents(y, couplings.W_l.shape[0])
    n_traj, steps = y.shape[:2]
    if steps != table.steps:
        raise DimensionMismatch("record and block table use different grids")
    m = 2 * table.n_modes
    cols = np.flatnonzero(np.any(couplings.W_l != 0, axis=1)
                          | np.any(couplings.W_r != 0, axis=1))
    k, b = len(cols), _SCAN_BLOCK
    n_blocks = -(-steps // b)
    chunk, n_bases = len(table.powers), len(table.bases)
    # W = [W_l | W_r J^T]; J reverses the columns it multiplies
    fold = table.dt * (np.hstack([couplings.W_l[cols], couplings.W_r[cols, ::-1]])
                       @ table.powers)
    fold = fold.reshape(chunk * k, 2 * m)
    flip_right = np.r_[:m, 2 * m - 1:m - 1:-1]
    step_of = np.repeat(np.arange(b), k)
    weights = (step_of[:, None] > step_of) + 0.5 * (step_of[:, None] == step_of)

    totals = np.zeros((n_traj, 2 * m), dtype=complex)      # [l' | r'] so far
    h = np.zeros(n_traj, dtype=complex)
    per_group = max(1, _STREAM_CHUNK // (b * max(1, n_traj + 16 * k)))
    for c0 in range(0, n_blocks, per_group):
        g = min(per_group, n_blocks - c0)
        j0, j1 = c0 * b, (c0 + g) * b
        # steps past the grid's end repeat the last sample against zero kernels
        t_idx = np.minimum(np.arange(j0, j1), steps - 1)[:, None]
        part = y[:, t_idx, cols].reshape(n_traj, g, b * k)
        slab = part.transpose(1, 0, 2)
        # [KL | KR] of the group's steps: one product of the fold with each
        # base the group reaches, zero past the last step
        q0, q1 = j0 // chunk, min(-(-j1 // chunk), n_bases)
        kern = np.zeros((max((q1 - q0) * chunk, j1 - q0 * chunk), k, 2 * m),
                        dtype=complex)
        np.matmul(fold, table.bases[q0:q1][..., flip_right],
                  out=kern[:(q1 - q0) * chunk].reshape(q1 - q0, chunk * k, 2 * m))
        kern[steps - q0 * chunk:] = 0.0
        kern = kern[j0 - q0 * chunk:j1 - q0 * chunk].reshape(g, b * k, 2 * m)
        m_c = kern[..., :m] @ kern[..., m:].transpose(0, 2, 1) * weights
        # real slabs times the real view of the complex kernels: each product
        # row reads back as the complex block sums [dl'_c | dr'_c]
        sums = np.matmul(slab, kern.view(float)).view(complex)
        # y_c M_c, stored record-major: each record's sum of y_c M_c y_c^T
        # over the group is then one row-times-matrix product
        quad = np.empty((n_traj, g, 2 * b * k))
        np.matmul(slab, m_c.view(float), out=quad.transpose(1, 0, 2))
        run = np.cumsum(sums, axis=0)          # [l' | r'] since block c0
        h += (np.matmul(part.reshape(n_traj, 1, g * b * k),
                        quad.reshape(n_traj, g * b * k, 2)).view(complex)[:, 0, 0]
              + np.einsum("gsm,gsm->s", sums[1:, :, :m], run[:-1, :, m:])
              + (run[-1, :, :m] * totals[:, m:]).sum(axis=1))
        totals += run[-1]
    resid = _pairing_residuals(totals[:, :m], totals[:, m:])
    bad = np.flatnonzero(~(resid <= PAIRING_TOL))
    if len(bad):
        where = f"record {bad[0]}: " if n_traj > 1 else ""
        raise CrossCheckFailure(f"{where}integrals violate conjugate pairing: "
                                f"relative residual {resid[bad[0]]:.3e} exceeds "
                                f"the bound {PAIRING_TOL:.0e}")
    return totals[:, :m], totals[:, m:], h


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
    dt, y = record.dt, record.y
    n_cols = y.shape[1]
    # a column of +0.0 only (an unmonitored current) is the literal "0" that
    # %.17g writes for each of its cells; -0.0 is written "-0"
    zero = ~(y.any(axis=0) | np.signbit(y).any(axis=0))
    live = np.flatnonzero(~zero)
    row_fmt = ",".join(["%.17g"] + ["0" if z else "%.17g" for z in zero]) + "\r\n"
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(["t"] + [f"y_{k + 1}" for k in range(n_cols)]) + "\r\n")
        # one % format per block of rows: the bytes np.savetxt(fmt="%.17g",
        # delimiter=",", newline="\r\n") writes, without its per-row loop.
        # Each block's times are those of record.times; no array spans the
        # record
        for i in range(0, len(y), _CSV_BLOCK):
            rows = y[i:i + _CSV_BLOCK, live]
            block = np.column_stack([dt * np.arange(i, i + len(rows)), rows])
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def record_from_csv(path: str) -> MeasurementRecord:
    """Read a :func:`record_to_csv` file.  dt is the spacing of its ``t``
    column.  ConfigError on a file that cannot be read or decoded, or a
    malformed one: no leading ``t`` column, ragged or non-numeric rows, a
    non-finite cell, fewer than two rows, or a ``t`` column that is not
    increasing and uniformly spaced."""
    try:
        with open(path) as fh:
            header = next((line for line in fh if not line.startswith("#")), "")
            if header.strip().split(",")[0] != "t":
                raise ConfigError(f"record CSV {path} must start with a 't' column")
            # loadtxt warns on an empty body; that case is raised below
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read record CSV {path}: {exc.strerror}") from None
    except ValueError as exc:     # a parse error or UnicodeDecodeError
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
    return MeasurementRecord(dt=dt, y=y)


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
