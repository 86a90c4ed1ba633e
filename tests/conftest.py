"""Shared helpers for the test suite, and the reference routes the tests
compare the library against."""

from dataclasses import dataclass, fields, replace
from math import factorial

import numpy as np
import pytest
from mpmath import mp
from scipy.linalg import expm

from lintraj import _linalg, trajectory
from lintraj.adjoint_kalman import (
    INFO_FLOOR,
    EffectMoments,
    _moments_from_information,
    _riccati_flow_matrix,
    kalman_matrices,
)
from lintraj.errors import DimensionMismatch, LogBranchFailure
from lintraj.lie_rep import (
    flip,
    normal_order_linear,
    propagator_blocks,
    reordering_scalar,
    rep_of_generator,
)
from lintraj.oracle_sme import _check_tail, _lindblad_rhs, build_operators
from lintraj.parameterization import (
    QuadraticForm,
    compute_generator,
    half_swap,
    quadrature_expansion,
)
from lintraj.state_engine import (
    EvolutionFactors,
    FockDensityMatrix,
    _mode_lowering,
    evolution_superoperators,
    fock_operators,
)
from lintraj.system import (
    FockFormSpec,
    SystemSpec,
    from_fock_form,
    mode_rotation,
    validate_spec,
)
from lintraj.trajectory import MeasurementRecord


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


def two_damped_modes():
    """Two damped modes, each monitored on one of the four current columns
    (0 and 2): vacuum stays on a 3-level truncation."""
    M = np.zeros((2, 4), dtype=complex)
    M[0, 0], M[1, 2] = np.sqrt(0.8), np.sqrt(0.5)
    return from_fock_form(FockFormSpec(
        n_modes=2, n_channels=2, F=np.zeros((4, 4)),
        Z=np.array([[1, 0, 0, 0], [0, 0, 0.7, 0]], dtype=complex), M=M))


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
    return QuadraticForm(n=n, const=complex(rng.normal() * scale), R=R, D=D,
                         L=L)


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


def record_terms(blocks, ints):
    """(l_u, r_u, sigma) of one record: the physical halves of its
    normal-ordered linear coefficients, and its reordering scalar."""
    n = blocks.n_modes
    l_u, r_u = normal_order_linear(blocks, ints.l_prime, ints.r_prime)
    return l_u[:n], r_u[:n], reordering_scalar(blocks, ints.r_prime)


def dense_evolution(rho0, factors, l_u, r_u, sigma):
    """Test oracle: the unnormalized state of one record from dense expm of
    each full D^2N x D^2N species lift, times exp(delta' + sigma).  The
    record's linear terms l_u . a and r_u . a^dag join the quadratic lifts
    of their species before the exponential, so the oracle does not rely on
    the engine's split of commuting factors.  Meant for one mode, or two at a
    small D; the engine never builds these exponentials."""
    eye = np.eye(rho0.rho.shape[0])
    a_ops = _mode_lowering(rho0.n_modes, rho0.dim_per_mode)

    def lift(x):     # rho -> x rho + rho x^dag on column-stacked vec(rho)
        return np.kron(eye, x) + np.kron(x.conj(), eye)

    linear = (lift(sum(c * a for c, a in zip(l_u, a_ops))), 0.0,
              lift(sum(c * a.T for c, a in zip(r_u, a_ops))))
    v = rho0.rho.reshape(-1, order="F").astype(complex)
    for s, lin in zip(evolution_superoperators(factors, rho0.dim_per_mode),
                      linear):
        v = expm(s.toarray() + lin) @ v
    v = v * np.exp(factors.delta_prime + sigma)
    return v.reshape(rho0.rho.shape, order="F")


def random_single_mode_factors(rng, t=0.5):
    """(factors, l_u, r_u, sigma): the EvolutionFactors of a random
    single-mode system at time t, and random nonzero normal-ordered linear
    coefficients and sigma of one record.

    The generator comes from a random physical system (``random_spec``), not
    from ``random_generator``: unphysical generators can make exp(S) span
    ~15 decades, where the dense-expm oracle itself drifts to ~1e-11 relative
    while the structured route stays near 1e-15 (both checked against a
    60-digit Taylor series of the sparse lifts)."""
    spec = random_spec(1, int(rng.integers(1, 3)), rng)
    blocks = propagator_blocks(rep_of_generator(compute_generator(spec)), t)
    factors = EvolutionFactors.from_blocks(blocks)

    def cpx():
        return np.array([complex(rng.normal(), rng.normal())])

    return (factors, cpx(), cpx(),
            complex(0.1 * rng.normal(), 0.1 * rng.normal()))


def overflowing_integrals(blocks, ints):
    """``ints`` with r' scaled (by a complex factor) so that the reordering
    scalar sigma = r'^T L' r' is 800: exp(sigma) overflows a double, as the
    scalar of a long optomech record does."""
    sigma = reordering_scalar(blocks, ints.r_prime)
    return replace(ints, r_prime=np.sqrt(800.0 / sigma) * ints.r_prime)


def einsum_accumulation(table, couplings, y):
    """Test oracle for ``accumulate_integrals_ensemble``: the per-step einsum
    form over every current column, with all (S, steps, 2N) increment
    streams held at once.  Returns (l', r', h) like the streamed route."""
    m = 2 * table.n_modes
    J = flip(m)
    dt = table.dt
    grid = table_grid(table)
    n11, n1m1, nm11, nm1m1 = (grid[:, :m, :m], grid[:, :m, m:],
                              grid[:, m:, :m], grid[:, m:, m:])
    dl = np.einsum("sjk,km->sjm", y, couplings.W_l) * dt      # (S, J, 2N)
    dr = np.einsum("sjk,km->sjm", y, couplings.W_r) * dt
    dr_f = dr @ J.T                                            # J @ dr per step
    dl_p = (np.einsum("sjm,jmn->sjn", dl, n11)
            + np.einsum("sjm,jmn->sjn", dr_f, nm11))
    dr_p_pre = (np.einsum("jmn,sjm->sjn", n1m1, dl)
                + np.einsum("jmn,sjm->sjn", nm1m1, dr_f))
    dr_p = dr_p_pre @ J.T
    l_prime = dl_p.sum(axis=1)
    r_prime = dr_p.sum(axis=1)
    cum = np.cumsum(dr_p, axis=1) - dr_p                       # sum over k < j
    h = (np.einsum("sjm,sjm->s", dl_p, cum)
         + 0.5 * np.einsum("sjm,sjm->s", dl_p, dr_p))
    return l_prime, r_prime, h


def fresh_group_accumulation(table, couplings, y):
    """Test oracle for ``accumulate_integrals_ensemble`` at the bit level:
    the same blocked scan, each group's record columns gathered by one
    broadcast fancy index (steps past the grid's end clipped to the last
    sample), its block sums, y_c M_c and running sums fresh arrays, the
    running sums a cumsum.  Returns (l', r', h)."""
    m = 2 * table.n_modes
    cols = np.flatnonzero(np.any(couplings.W_l != 0, axis=1)
                          | np.any(couplings.W_r != 0, axis=1))
    n_traj, steps = y.shape[:2]
    k, b = len(cols), trajectory._SCAN_BLOCK
    n_blocks = -(-steps // b)
    chunk, n_bases = len(table.powers), len(table.bases)
    fold = table.dt * (np.hstack([couplings.W_l[cols], couplings.W_r[cols, ::-1]])
                       @ table.powers).reshape(chunk * k, 2 * m)
    flip_right = np.r_[:m, 2 * m - 1:m - 1:-1]
    step_of = np.repeat(np.arange(b), k)
    weights = (step_of[:, None] > step_of) + 0.5 * (step_of[:, None] == step_of)
    totals = np.zeros((n_traj, 2 * m), dtype=complex)
    h = np.zeros(n_traj, dtype=complex)
    per_group = max(1, trajectory._STREAM_CHUNK // (b * max(1, n_traj + 16 * k)))
    with np.errstate(over="ignore", invalid="ignore"):
        for c0 in range(0, n_blocks, per_group):
            g = min(per_group, n_blocks - c0)
            j0, j1 = c0 * b, (c0 + g) * b
            t_idx = np.minimum(np.arange(j0, j1), steps - 1)[:, None]
            part = y[:, t_idx, cols].reshape(n_traj, g, b * k)
            slab = part.transpose(1, 0, 2)
            q0, q1 = j0 // chunk, min(-(-j1 // chunk), n_bases)
            kern = np.zeros((max((q1 - q0) * chunk, j1 - q0 * chunk), k, 2 * m),
                            dtype=complex)
            np.matmul(fold, table.bases[q0:q1][..., flip_right],
                      out=kern[:(q1 - q0) * chunk].reshape(q1 - q0, chunk * k, 2 * m))
            kern[steps - q0 * chunk:] = 0.0
            kern = kern[j0 - q0 * chunk:j1 - q0 * chunk].reshape(g, b * k, 2 * m)
            m_c = kern[..., :m] @ kern[..., m:].transpose(0, 2, 1) * weights
            sums = np.matmul(slab, kern.view(float)).view(complex)
            quad = np.empty((n_traj, g, 2 * b * k))
            np.matmul(slab, m_c.view(float), out=quad.transpose(1, 0, 2))
            run = np.cumsum(sums, axis=0)
            h += (np.matmul(part.reshape(n_traj, 1, g * b * k),
                            quad.reshape(n_traj, g * b * k, 2)).view(complex)[:, 0, 0]
                  + np.einsum("gsm,gsm->s", sums[1:, :, :m], run[:-1, :, m:])
                  + (run[-1, :, :m] * totals[:, m:]).sum(axis=1))
            totals += run[-1]
    return totals[:, :m], totals[:, m:], h


def euler_backward(mats, record):
    """Test oracle for ``integrate_backward``: the explicit-Euler information
    filter for (z, Lambda), stepped back over the record from a flat effect.
    A~, Cm and 4 B^T B are read from the blocks of the linear Riccati flow."""
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
    """Test oracle for ``backward_sweep``: the same exact flow, with [X; Y]
    after k steps back its own float64 exponential expm(M k dt) [1; 0] and
    the record kernel X^T (2 B^T + Lambda S^T) formed from Lambda = Y X^{-1}
    at every step.  Returns (xs at the samples, final z)."""
    steps, dt = record.steps, record.dt
    n2 = 2 * mats.n_modes
    m, k = _riccati_flow_matrix(mats), np.arange(steps + 1)
    flows = np.concatenate([_linalg.expm(m * (dt * k[i:i + 128, None, None]))
                            for i in range(0, steps + 1, 128)])[:, :, :n2]
    xy = flows[0]
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
        xy = flows[k_back]
        if k_back % sample_every == 0 or k_back == steps:
            z = emit()
    return np.array(xs), z


def mp_backward_sweep(mats, record, n_samples):
    """High-precision arbiter for ``backward_sweep``: the exact sweep in
    40-digit mpmath arithmetic from the library's float64 inputs, namely the
    Riccati flow matrix times the step, M dt, the record, B, S and dt, each
    read exactly.  The one-step flow P is the 40-digit exponential of that
    M dt, the true flow of these inputs, so no rounded float64 step is taken
    as exact.  Whatever order and factoring the library computes in, its
    x and z should sit within their float64 conditioning of these values.
    Over each sample interval k0 < k <= k1 the record term is summed by
    Horner's rule, w += dt (sum_i y_{k0+i} K P^i) [X; Y], skipping the
    exact zeros of P and of the kernel K, and [X; Y] advances by
    P^(k1 - k0) only at the sample points.  x is the pseudo-inverse of
    Lambda applied to z, masked as ``_moments_from_information`` masks it.
    Returns (xs at the samples, final z), rounded to float64."""
    steps, dt = record.steps, record.dt
    n2 = 2 * mats.n_modes
    kernel = np.vstack([2.0 * mats.B.T, mats.S.T]).T     # exact in float64
    sample_every = max(1, steps // max(1, n_samples - 1))
    with mp.workdps(40):
        def exact(a):
            return np.vectorize(mp.mpf, otypes=[object])(a)

        step = mp.expm(mp.matrix(exact(_riccati_flow_matrix(mats) * dt)
                                 .tolist()))
        live = np.any(record.y != 0, axis=0)     # all-zero columns add 0
        y_back = exact(record.y[::-1, live]).tolist()
        # column c of v P + y K, from the nonzero entries of column c of
        # [P; K] and the concatenated row [v | y]
        stacked = np.vstack([np.array(step.tolist(), dtype=object),
                             exact(kernel[live])])
        cols = [[(r, stacked[r, c]) for r in range(len(stacked))
                 if stacked[r, c] != 0]
                for c in range(2 * n2)]
        powers = {}
        xy = exact(np.vstack([np.eye(n2), np.zeros((n2, n2))]))
        w = exact(np.zeros(n2))
        xs = []

        def emit():
            X, Y = mp.matrix(xy[:n2].tolist()), mp.matrix(xy[n2:].tolist())
            lam = Y * X ** -1
            lam = (lam + lam.T) / 2
            z = (X.T) ** -1 * mp.matrix(w.tolist())
            E, Q = mp.eigsy(lam)
            x = np.full(n2, np.inf)
            keep = [i for i in range(n2) if E[i] > INFO_FLOOR]
            if keep:
                x_mp = sum((Q[:, i] * (Q[:, i].T * z)[0] / E[i] for i in keep),
                           mp.zeros(n2, 1))
                flat = [sum(Q[r, i] ** 2 for i in range(n2) if i not in keep)
                        for r in range(n2)]
                x = np.array([np.inf if flat[r] > 1e-10 else float(x_mp[r])
                              for r in range(n2)])
            xs.append(x)
            return np.array([float(v) for v in z])

        z = emit()
        for k0 in range(0, steps, sample_every):
            k1 = min(k0 + sample_every, steps)
            v = [mp.zero] * (2 * n2)
            for row in reversed(y_back[k0:k1]):
                src = v + row
                v = [sum((src[r] * p for r, p in col[1:]), src[col[0][0]] * col[0][1])
                     for col in cols]
            w = w + np.array(v, dtype=object) @ xy * mp.mpf(dt)
            if k1 - k0 not in powers:
                powers[k1 - k0] = np.array((step ** (k1 - k0)).tolist(),
                                           dtype=object)
            xy = powers[k1 - k0] @ xy
            z = emit()
    return np.array(xs), z


def forward_riccati_matrix(mats):
    """[[A~, Cm], [4 B^T B, -A~^T]] with A~ = A + 2 S^T B and Cm = E - S^T S:
    the linearized forward Riccati dV/dt = A~ V + V A~^T + Cm - V 4 B^T B V,
    assembled from the Kalman matrices."""
    a_t = mats.A + 2.0 * mats.S.T @ mats.B
    return np.block([[a_t, mats.E - mats.S.T @ mats.S],
                     [4.0 * mats.B.T @ mats.B, -a_t.T]])


def exact_forward_covariances(mats, cov, dt, steps):
    """Test oracle for ``forward_covariance_flow``: V(j dt) = X Y^{-1} with
    [X; Y] = expm(M j dt) [V(0); 1], each step its own scipy exponential
    from t = 0 (never re-anchored, so for short horizons only), symmetrized.
    Returns the (steps+1, 2N, 2N) covariances."""
    n2 = len(cov)
    M = forward_riccati_matrix(mats)
    start = np.vstack([cov, np.eye(n2)])
    covs = np.empty((steps + 1, n2, n2))
    for j in range(steps + 1):
        xy = expm(M * (j * dt)) @ start
        v = np.linalg.solve(xy[n2:].T, xy[:n2].T)
        covs[j] = (v + v.T) / 2
    return covs


def mp_forward_covariance(mats, cov, t, dps=30):
    """V(t) of the forward Riccati flow at ``dps`` digits: X Y^{-1} with
    [X; Y] = expm(M t) [V(0); 1] in mpmath, rounded to floats."""
    n2 = len(cov)
    with mp.workdps(dps):
        P = mp.expm(mp.matrix(forward_riccati_matrix(mats).tolist())
                    * mp.mpf(t))
        xy = P * mp.matrix(np.vstack([cov, np.eye(n2)]).tolist())
        V = xy[:n2, :] * xy[n2:, :] ** -1
        return np.array([[float(V[i, j]) for j in range(n2)]
                         for i in range(n2)])


def loop_conditioned_records(spec, mean, cov, dt, t_final, rng, n_traj=None):
    """Test oracle for ``sample_conditioned_record_gaussian``: the forward
    filter stepped inside the per-step draw loop (one
    ``rng.normal(size=(n_traj, monitored))`` per step), with each step's
    gain from :func:`exact_forward_covariances`.  Returns the
    (n_traj or 1, steps, 2L) currents."""
    steps = int(round(t_final / dt))
    mats = kalman_matrices(spec)
    mask = spec.monitored
    m_traj = 1 if n_traj is None else n_traj
    xbar = np.tile(np.asarray(mean, dtype=float), (m_traj, 1))
    covs = exact_forward_covariances(mats, np.asarray(cov, dtype=float), dt,
                                     steps)
    y_out = np.zeros((m_traj, steps, 2 * spec.n_channels))
    for j in range(steps):
        gain = 2.0 * covs[j] @ mats.B.T - mats.S.T
        dw = np.zeros((m_traj, 2 * spec.n_channels))
        dw[:, mask] = rng.normal(size=(m_traj, int(mask.sum()))) * np.sqrt(dt)
        y_out[:, j, :] = (xbar @ (2.0 * mats.B).T * dt + dw) / dt
        xbar = xbar + xbar @ mats.A.T * dt + dw @ gain.T
    return y_out


# Reference routes: independent derivations of what the library computes,
# kept beside the tests that compare against them.

def assemble(blocks):
    """Full (4N+2) matrix of ``PropagatorBlocks`` (inverse of
    ``PropagatorBlocks.from_matrix``)."""
    m = 2 * blocks.n_modes
    dim = 4 * blocks.n_modes + 2
    T = np.eye(dim, dtype=complex)
    T[1:m + 1, 1:m + 1] = blocks.N11
    T[1:m + 1, m + 1:2 * m + 1] = blocks.N1m1
    T[m + 1:2 * m + 1, 1:m + 1] = blocks.Nm11
    T[m + 1:2 * m + 1, m + 1:2 * m + 1] = blocks.Nm1m1
    T[1:m + 1, 0] = blocks.N10
    T[m + 1:2 * m + 1, 0] = blocks.Nm10
    T[dim - 1, 1:m + 1] = blocks.Nm01
    T[dim - 1, m + 1:2 * m + 1] = blocks.Nm0m1
    T[dim - 1, 0] = blocks.c
    return T


def d_prime(dis):
    """Normally ordered form of a ``DisentangledQuadratic``'s number factor:
    expm(D_under) - 1."""
    return expm(dis.D_under) - np.eye(2 * dis.n_modes)


def generator_blocks(gen):
    """Physical-half blocks of a generator ``QuadraticForm``: for X in
    (R, D, L), X = [[x, xb], [.., ..]]."""
    n = gen.n
    return {
        "R": gen.R[:n, :n], "R_breve": gen.R[:n, n:],
        "D": gen.D[:n, :n], "D_breve": gen.D[:n, n:],
        "L": gen.L[:n, :n], "L_breve": gen.L[:n, n:],
    }


def rep_linear_factor(n_modes, l_row=None, r_col=None):
    """Exact image of exp(b^dag r + l b): the image of the exponent is
    nilpotent of index 2, so this is identity plus the exponent image."""
    qf = QuadraticForm(n=n_modes, lin_l=l_row, lin_r=r_col)
    return np.eye(4 * n_modes + 2, dtype=complex) + rep_of_generator(qf).matrix


def reconstruct_from_factors(dis):
    """Image of the three-factor product of a ``DisentangledQuadratic``;
    equals the propagator image when the disentanglement is consistent."""
    n = dis.n_modes
    f_r = expm(rep_of_generator(QuadraticForm(n=n, R=dis.R_prime)).matrix)
    f_d = expm(rep_of_generator(QuadraticForm(n=n, D=dis.D_under,
                                          const=dis.delta_prime)).matrix)
    f_l = expm(rep_of_generator(QuadraticForm(n=n, L=dis.L_prime)).matrix)
    return f_r @ f_d @ f_l


def reorder_linear_increment(blocks, dl, dr):
    """Move a linear-exponent factor from the left of the propagator to the
    right: the returned (dl', dr') satisfy
    exp(b^dag dr + dl b) exp(Q t) = exp(Q t) exp(b^dag dr' + dl' b).
    dl is a row (coefficients of b), dr a column (of b^dag), both length 2N."""
    J = flip(2 * blocks.n_modes)
    dl_p = dl @ blocks.N11 + (J @ dr) @ blocks.Nm11
    dr_p = J @ (blocks.N1m1.T @ dl + blocks.Nm1m1.T @ (J @ dr))
    return dl_p, dr_p


def commutator(a, b):
    """Lie bracket [a, b] of two quadratic forms; closed under the bracket."""
    if a.n != b.n:
        raise DimensionMismatch("commutator of forms with different mode counts")
    a = a.symmetrized()
    b = b.symmetrized()
    out = QuadraticForm(n=a.n)
    # quadratic x quadratic
    out.D += a.D @ b.D - b.D @ a.D
    out.D += -4.0 * (a.R @ b.L) + 4.0 * (b.R @ a.L)
    out.const += -2.0 * np.trace(a.R @ b.L) + 2.0 * np.trace(b.R @ a.L)
    dr = a.D @ b.R - b.D @ a.R
    out.R += dr + dr.T
    dl = a.L @ b.D - b.L @ a.D
    out.L += dl + dl.T
    # quadratic x linear
    out.lin_l += (a.lin_l @ b.D) - (b.lin_l @ a.D)
    out.lin_r += a.D @ b.lin_r - b.D @ a.lin_r
    out.lin_r += -2.0 * (a.R @ b.lin_l) + 2.0 * (b.R @ a.lin_l)
    out.lin_l += 2.0 * (b.lin_r @ a.L) - 2.0 * (a.lin_r @ b.L)
    # linear x linear
    out.const += a.lin_l @ b.lin_r - b.lin_l @ a.lin_r
    return out.symmetrized()


def generator_rdl_composites(spec):
    """(R, D, L) of ``compute_generator`` by the composite-matrix route (no
    scalar part), from B = C^dag C, Fc = C^T M* M^dag C, Kc = C^T M* M^T C*
    and the quadrature-expansion / half-swap conjugations."""
    u = quadrature_expansion(spec.n_modes)
    swap = half_swap(spec.n_modes)
    C, M, G = spec.C, spec.M, spec.G
    B = C.conj().T @ C
    Fc = C.T @ M.conj() @ M.conj().T @ C
    Kc = C.T @ M.conj() @ M.T @ C.conj()

    def tt(a):
        return u.T @ a @ u

    def ts(a):
        return u.T @ a @ u.conj()

    def dd(a):
        return u.conj().T @ a @ u

    def ds(a):
        return u.conj().T @ a @ u.conj()

    def bar(a):
        return swap @ a @ swap

    L = (-0.5j * (tt(G) - bar(ds(G))) + swap @ dd(B) - 0.5 * tt(B)
         - 0.5 * (bar(ds(B.conj())) + tt(Fc) + ts(Kc) @ swap
                  + swap @ dd(Kc.conj()) + bar(ds(Fc.conj().T))))
    R = (-0.5j * (ds(G) - bar(tt(G))) + swap @ ts(B) - 0.5 * ds(B)
         - 0.5 * (bar(tt(B.conj())) + ds(Fc) + dd(Kc) @ swap
                  + swap @ ts(Kc.conj()) + bar(tt(Fc.conj().T))))
    D = (-1.0j * (dd(G) - bar(ts(G))) + swap @ tt(B) + ds(B.conj()) @ swap
         - 0.5 * (dd(B) + dd(B.conj()) + bar(ts(B)) + bar(ts(B.conj())))
         - (dd(Fc) + ds(Kc) @ swap + swap @ tt(Kc.conj()) + bar(ts(Fc.conj().T))))
    return (R + R.T) / 2.0, D, (L + L.T) / 2.0


def effect_fock_operator(effect, dim):
    """Dense W_d of a single-mode ``GaussianEffect`` on a dim-level
    truncation, for Q-function checks."""
    if effect.n_modes != 1:
        raise DimensionMismatch("Fock realization implemented for one mode")
    a, ad, nop = fock_operators(dim)
    lpp = complex(effect.Lpp[0, 0])
    lb = complex(effect.Lpp_breve[0, 0])
    dval = complex(effect.d[0])
    base = 1.0 + 2.0 * lb
    if base.real <= 0:
        raise LogBranchFailure("1 + 2 Lpp_breve must have positive real part")
    left = expm(dval * ad + lpp * (ad @ ad))
    mid = expm(np.log(base) * nop)
    right = expm(np.conj(lpp) * (a @ a) + np.conj(dval) * a)
    return np.exp(effect.log_norm) * (left @ mid @ right)


def backward_covariance(mats, sigma):
    """Effect covariance after a backward span sigma from a flat start, from
    one expm of the linear Riccati flow.  Uninformative entries are inf."""
    n2 = 2 * mats.n_modes
    prop = expm(_riccati_flow_matrix(mats) * sigma)
    X = prop[:n2, :n2]
    Y = prop[n2:, :n2]
    lam = Y @ np.linalg.inv(X)
    _, V, _ = _moments_from_information(mats.n_modes, np.zeros(n2), lam)
    return V


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_final: float
    seed: int | None = 0

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.dt))


def integrate_nonlinear_sme(spec, rho0, config):
    """Normalized conditioned state (Euler-Maruyama), generating its own
    record: y dt = <v_k + v_k^dag> dt + dw_k on monitored components,
    dw ~ N(0, dt).  Returns (final normalized state, record)."""
    dim = rho0.dim_per_mode
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
    _check_tail(rho, spec.n_modes, dim, f"t={config.t_final}")
    record = MeasurementRecord(dt=dt, y=y)
    final = FockDensityMatrix(n_modes=spec.n_modes, dim_per_mode=dim, rho=rho)
    return final, record


def to_fock_form(spec):
    """Inverse of ``from_fock_form`` (X is unitary)."""
    X = mode_rotation(spec.n_modes)
    return FockFormSpec(n_modes=spec.n_modes, n_channels=spec.n_channels,
                        F=X.conj().T @ spec.G @ X, Z=spec.C @ X, M=spec.M)


def apply_evolution_power_series(rho0, factors, l_u, r_u, sigma):
    """Single-mode reference for ``apply_evolution``: expand the partner-mode
    couplings of the fully normal-ordered evolution of one record (linear
    coefficients l_u, r_u and scalar sigma) as a quadruple power series,
    truncated at total order 4 * dim."""
    if rho0.n_modes != 1:
        raise DimensionMismatch("power-series route is single-mode only")
    dim = rho0.dim_per_mode
    max_order = 4 * dim
    a, ad, _ = fock_operators(dim)
    d_full = np.block([[factors.D_under, factors.D_breve],
                       [factors.D_breve.conj(), factors.D_under.conj()]])
    e_d = expm(d_full)
    d_pr = e_d[0, 0] - 1.0
    d_breve_pr = e_d[0, 1]
    if (1.0 + d_pr).real <= 0 and abs((1.0 + d_pr).imag) < 1e-14:
        raise LogBranchFailure("normally ordered number factor undefined")
    r_p, rb_p = factors.R_prime[0, 0], factors.R_breve[0, 0]
    lb_p = factors.L_breve[0, 0]
    l_p = factors.L_prime[0, 0]
    r_u, l_u = r_u[0], l_u[0]

    e_cre = expm(r_u * ad + r_p * (ad @ ad))
    e_num = expm(np.log(1.0 + d_pr) * (ad @ a))
    e_ann = expm(l_p * (a @ a) + l_u * a)
    left_core = e_cre @ e_num
    right_core = e_num.conj() @ e_cre.conj().T

    ad_pow = [np.eye(dim, dtype=complex)]
    a_pow = [np.eye(dim, dtype=complex)]
    for _ in range(max_order + 1):
        ad_pow.append(ad_pow[-1] @ ad)
        a_pow.append(a_pow[-1] @ a)

    mid = e_ann @ rho0.rho @ e_ann.conj().T
    rho = np.zeros_like(mid)
    for j in range(max_order + 1):
        for k in range(max_order + 1 - j):
            for m in range(max_order + 1 - j - k):
                for n in range(max_order + 1 - j - k - m):
                    if n + k >= dim or j + m >= dim or j + k >= dim or n + m >= dim:
                        continue
                    coeff = ((2 * lb_p) ** j * d_breve_pr.conjugate() ** k
                             * d_breve_pr ** m * (2 * rb_p) ** n
                             / (factorial(j) * factorial(k)
                                * factorial(m) * factorial(n)))
                    if abs(coeff) < 1e-24:
                        continue
                    term = (ad_pow[n + k] @ left_core @ a_pow[j + m] @ mid
                            @ ad_pow[j + k] @ right_core @ a_pow[n + m])
                    rho += coeff * term
    return FockDensityMatrix(n_modes=1, dim_per_mode=dim,
                             rho=rho * np.exp(factors.delta_prime + sigma))


def table_grid(table):
    """The (steps, 4N, 4N) inner propagator blocks at j = 1..steps, rebuilt
    from a ``BlockTable``'s two factor stacks: step j = qC + i (0-based) is
    ``powers[i] @ bases[q]``."""
    c = len(table.powers)
    return np.array([table.powers[j % c] @ table.bases[j // c]
                     for j in range(table.steps)])


def block_table_residual(table, rep):
    """Largest difference between the inner blocks of a ``BlockTable`` at
    each grid time j dt, and the blocks of its final propagator, and
    ``propagator_blocks`` evaluated directly there."""
    m = 2 * table.n_modes
    worst = 0.0
    for j, inner in enumerate(table_grid(table)):
        want = propagator_blocks(rep, table.dt * (j + 1))
        for name, got in (("N11", inner[:m, :m]), ("N1m1", inner[:m, m:]),
                          ("Nm11", inner[m:, :m]), ("Nm1m1", inner[m:, m:])):
            worst = max(worst, float(np.abs(got - getattr(want, name)).max()))
    got = table.final_blocks()
    want = propagator_blocks(rep, table.dt * table.steps)
    for field in fields(got):
        diff = np.subtract(getattr(got, field.name), getattr(want, field.name))
        worst = max(worst, float(np.abs(diff).max()))
    return worst
