"""Apply the composed evolution to arbitrary states in a truncated Fock basis.

The evolution operator factorizes as

    exp(h + delta' + sigma) *
    exp(creation factor: b^dag r_u + b^dag R' b^(dag.T)) *
    exp(number factor:   b^dag D_u b) *
    exp(annihilation factor: b^T L' b + l_u b)

where sigma = r'^T L' r' is the scalar spawned when the linear pieces are
normal ordered.  Partner-mode (right-multiplication) operators are realized by
Kronecker lifting onto column-stacked density matrices: A rho B maps to
(B^T kron A) vec(rho).

All record-independent work lives in :class:`EnsemblePropagator`, the one
state engine: it disentangles the quadratic part once and keeps the quadratic
factor exponentials for every record.  The trajectory-dependent linear
factors commute with the quadratic factors of the same species, so per record
only their nilpotent lifts are applied.  For a single mode every term of a
species commutes, so each factor exponential splits into D x D exponentials,
a terminating sandwich series and, for the number factor, one small block per
m + n sector (:func:`single_mode_exponentials`); no D^2 x D^2 matrix is ever
exponentiated.  Two or more modes apply the sparse quadratic lifts with
``expm_multiply``.  :func:`apply_evolution` is a one-record call into the
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .errors import (
    DimensionMismatch,
    LogBranchFailure,
    NonHermitianResult,
    TruncationOverflow,
    ZeroTrace,
)
from .lie_rep import (
    DisentangledQuadratic,
    PropagatorBlocks,
    disentangle_quadratic,
    normal_order_linear,
    reordering_scalar,
)
from .trajectory import TrajectoryIntegrals

DEFAULT_TAIL_TOL = 1e-8
HERMITICITY_TOL = 1e-9


def fock_operators(dim: int):
    """(a, a_dag, n) ladder matrices on a dim-level truncation."""
    if dim < 2:
        raise ValueError("need dim >= 2")
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    return a, a.T.copy(), np.diag(np.arange(dim, dtype=float))


@lru_cache(maxsize=32)
def _mode_lowering(n_modes: int, dim: int) -> tuple:
    """Per-mode lowering operators on the D^N product space (sparse CSR)."""
    a1 = sp.csr_matrix(np.diag(np.sqrt(np.arange(1, dim)), k=1))
    eye = sp.identity(dim, format="csr")
    ops = []
    for i in range(n_modes):
        factors = [a1 if j == i else eye for j in range(n_modes)]
        acc = factors[0]
        for f in factors[1:]:
            acc = sp.kron(acc, f, format="csr")
        ops.append(acc)
    return tuple(ops)


@dataclass
class FockDensityMatrix:
    """Density matrix on an N-mode D-level truncation. May be unnormalized."""

    n_modes: int
    dim_per_mode: int
    rho: np.ndarray
    is_normalized: bool = True

    @property
    def dim(self) -> int:
        return self.dim_per_mode ** self.n_modes

    def trace(self) -> complex:
        return complex(np.trace(self.rho))

    def tail_mass(self) -> float:
        """Largest relative population of any mode's top Fock level."""
        pops = np.real(np.diag(self.rho)).reshape((self.dim_per_mode,) * self.n_modes)
        total = pops.sum()
        if total <= 0:
            return np.inf
        worst = 0.0
        for axis in range(self.n_modes):
            sl = [slice(None)] * self.n_modes
            sl[axis] = self.dim_per_mode - 1
            worst = max(worst, float(np.abs(pops[tuple(sl)].sum())) / abs(total))
        return worst

    def check_hermitian(self, tol: float = HERMITICITY_TOL) -> None:
        scale = max(1.0, float(np.abs(self.rho).max()))
        dev = float(np.abs(self.rho - self.rho.conj().T).max())
        if dev > tol * scale:
            raise NonHermitianResult(f"Hermiticity deviation {dev:.3e}")

    def purity(self) -> float:
        tr = self.trace().real
        return float(np.real(np.trace(self.rho @ self.rho)) / tr ** 2)


def vacuum_state(n_modes: int, dim: int) -> FockDensityMatrix:
    rho = np.zeros((dim ** n_modes, dim ** n_modes), dtype=complex)
    rho[0, 0] = 1.0
    return FockDensityMatrix(n_modes=n_modes, dim_per_mode=dim, rho=rho)


def fock_state(n_modes: int, dim: int, levels) -> FockDensityMatrix:
    levels = np.atleast_1d(levels)
    idx = 0
    for lv in levels:
        idx = idx * dim + int(lv)
    rho = np.zeros((dim ** n_modes, dim ** n_modes), dtype=complex)
    rho[idx, idx] = 1.0
    return FockDensityMatrix(n_modes=n_modes, dim_per_mode=dim, rho=rho)


def coherent_state(n_modes: int, dim: int, alpha) -> FockDensityMatrix:
    """Product coherent state, renormalized on the truncation."""
    from math import factorial

    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    psi = np.array([1.0], dtype=complex)
    for a in alpha:
        ns = np.arange(dim)
        coeff = np.exp(-abs(a) ** 2 / 2) * a ** ns / np.sqrt(
            np.array([float(factorial(n)) for n in ns]))
        psi = np.kron(psi, coeff)
    psi /= np.linalg.norm(psi)
    return FockDensityMatrix(n_modes=n_modes, dim_per_mode=dim,
                             rho=np.outer(psi, psi.conj()))


@dataclass(frozen=True)
class EvolutionFactors:
    """Physical-half parameters of the three-factor evolution at time t.

    r_under/l_under are the normal-ordered linear coefficients; log_scalar is
    delta' + sigma (everything except the record scalar h)."""

    n_modes: int
    t: float
    R_prime: np.ndarray
    R_breve: np.ndarray
    D_under: np.ndarray
    D_breve: np.ndarray
    L_prime: np.ndarray
    L_breve: np.ndarray
    r_under: np.ndarray
    l_under: np.ndarray
    delta_prime: complex
    sigma: complex

    @classmethod
    def from_blocks(cls, blocks: PropagatorBlocks,
                    integrals: TrajectoryIntegrals | None = None,
                    dis: DisentangledQuadratic | None = None) -> "EvolutionFactors":
        n = blocks.n_modes
        if dis is None:
            dis = disentangle_quadratic(blocks)
        if integrals is None:
            l_u = np.zeros(2 * n, dtype=complex)
            r_u = np.zeros(2 * n, dtype=complex)
            sigma = 0.0
        else:
            l_u, r_u = normal_order_linear(blocks, integrals.l_prime,
                                           integrals.r_prime)
            sigma = reordering_scalar(blocks, integrals.r_prime)
        return cls(
            n_modes=n, t=blocks.t,
            R_prime=dis.R_prime[:n, :n], R_breve=dis.R_prime[:n, n:],
            D_under=dis.D_under[:n, :n], D_breve=dis.D_under[:n, n:],
            L_prime=dis.L_prime[:n, :n], L_breve=dis.L_prime[:n, n:],
            r_under=r_u[:n], l_under=l_u[:n],
            delta_prime=dis.delta_prime, sigma=complex(sigma),
        )

    @property
    def log_scalar(self) -> complex:
        """Record-independent scalar exponent of the evolution operator."""
        return self.delta_prime + self.sigma


def _lift_left(X: sp.spmatrix, dim: int) -> sp.spmatrix:
    return sp.kron(sp.identity(dim, format="csr"), X, format="csr")


def _lift_right(X: sp.spmatrix, dim: int) -> sp.spmatrix:
    return sp.kron(X.T, sp.identity(dim, format="csr"), format="csr")


def _sandwich(left: sp.spmatrix, right: sp.spmatrix) -> sp.spmatrix:
    # A rho B -> (B^T kron A) vec(rho)
    return sp.kron(right.T, left, format="csr")


def evolution_superoperators(factors: EvolutionFactors, dim: int):
    """(S_ann, S_num, S_cre) sparse lifts; the evolution applies
    exp(S_cre) exp(S_num) exp(S_ann) together with the scalar exponents.

    Each lift combines left action, the Hermiticity-pairing right action, and
    the cross (sandwich) term of its species.
    """
    n = factors.n_modes
    a_ops = _mode_lowering(n, dim)
    ad_ops = [op.conj().T.tocsr() for op in a_ops]
    d = dim ** n

    x_ann = sp.csr_matrix((d, d), dtype=complex)
    for i in range(n):
        if factors.l_under[i] != 0:
            x_ann = x_ann + factors.l_under[i] * a_ops[i]
        for j in range(n):
            if factors.L_prime[i, j] != 0:
                x_ann = x_ann + factors.L_prime[i, j] * (a_ops[i] @ a_ops[j])
    s_ann = _lift_left(x_ann, d) + _lift_right(x_ann.conj().T.tocsr(), d)
    for i in range(n):
        for j in range(n):
            if factors.L_breve[i, j] != 0:
                s_ann = s_ann + 2.0 * factors.L_breve[i, j] * _sandwich(a_ops[i], ad_ops[j])

    x_num = sp.csr_matrix((d, d), dtype=complex)
    for i in range(n):
        for j in range(n):
            if factors.D_under[i, j] != 0:
                x_num = x_num + factors.D_under[i, j] * (ad_ops[i] @ a_ops[j])
    s_num = _lift_left(x_num, d) + _lift_right(x_num.conj().T.tocsr(), d)
    db_dag = factors.D_breve.conj().T
    for i in range(n):
        for j in range(n):
            if factors.D_breve[i, j] != 0:
                s_num = s_num + factors.D_breve[i, j] * _sandwich(ad_ops[i], ad_ops[j])
            if db_dag[i, j] != 0:
                s_num = s_num + db_dag[i, j] * _sandwich(a_ops[i], a_ops[j])

    x_cre = sp.csr_matrix((d, d), dtype=complex)
    for i in range(n):
        if factors.r_under[i] != 0:
            x_cre = x_cre + factors.r_under[i] * ad_ops[i]
        for j in range(n):
            if factors.R_prime[i, j] != 0:
                x_cre = x_cre + factors.R_prime[i, j] * (ad_ops[i] @ ad_ops[j])
    s_cre = _lift_left(x_cre, d) + _lift_right(x_cre.conj().T.tocsr(), d)
    for i in range(n):
        for j in range(n):
            if factors.R_breve[i, j] != 0:
                s_cre = s_cre + 2.0 * factors.R_breve[i, j] * _sandwich(ad_ops[i], a_ops[j])

    return s_ann, s_num, s_cre


def _sandwich_series(c: complex, sandwich: sp.spmatrix, dim: int) -> sp.csr_matrix:
    """exp(c * sandwich) for a nilpotent single-mode sandwich lift: the
    Taylor series stops after dim terms on the truncation."""
    step = (c * sandwich).tocsr()
    term = sp.identity(dim * dim, dtype=complex, format="csr")
    total = term
    for k in range(1, dim):
        term = (term @ step) / k
        total = total + term
    return total.tocsr()


def _sector_expm(s_num: sp.spmatrix, dim: int) -> sp.csr_matrix:
    """exp(S_num) one sector at a time: every term of the number factor keeps
    m + n fixed, so its lift is block diagonal with blocks of at most dim."""
    s_num = s_num.toarray()
    k = np.arange(dim * dim)
    sector = k % dim + k // dim     # m + n of column-stacked entry k
    rows, cols, vals = [], [], []
    for s in range(2 * dim - 1):
        idx = np.flatnonzero(sector == s)
        block = expm(s_num[np.ix_(idx, idx)])
        rows.append(np.repeat(idx, idx.size))
        cols.append(np.tile(idx, idx.size))
        vals.append(block.ravel())
    d2 = dim * dim
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(d2, d2))


def single_mode_exponentials(factors: EvolutionFactors, dim: int) -> list:
    """exp(S_ann), exp(S_num), exp(S_cre) of one mode as (K, M) pairs with
    exp(S) = kron(conj(K), K) @ M, i.e. rho -> K (M rho) K^dag.

    Every term of a species commutes with the others.  The annihilation
    factor is K = exp(L' a^2 + l_u a) with M the terminating sandwich series
    sum_k (2 L_breve)^k / k! a^k rho a^dag^k; the creation factor is the same
    with a^dag for a; the number factor has K = None and M its sector-block
    exponential.  Only D x D matrices and number sectors are exponentiated.
    """
    if factors.n_modes != 1:
        raise DimensionMismatch("structured exponentials are single-mode only")
    a, ad, _ = fock_operators(dim)
    a_s, ad_s = sp.csr_matrix(a), sp.csr_matrix(ad)
    ann = (expm(factors.L_prime[0, 0] * (a @ a) + factors.l_under[0] * a),
           _sandwich_series(2.0 * factors.L_breve[0, 0], sp.kron(a_s, a_s), dim))
    num = (None, _sector_expm(evolution_superoperators(factors, dim)[1], dim))
    cre = (expm(factors.R_prime[0, 0] * (ad @ ad) + factors.r_under[0] * ad),
           _sandwich_series(2.0 * factors.R_breve[0, 0], sp.kron(ad_s, ad_s), dim))
    return [ann, num, cre]


def _apply_exponential(K: np.ndarray | None, M: sp.spmatrix, V: np.ndarray,
                       dim: int) -> np.ndarray:
    """kron(conj(K), K) @ M @ V for a (dim^2, k) stack of vec(rho) columns,
    with the Kronecker factor applied as K rho K^dag."""
    V = M @ V
    if K is None:
        return V
    R = V.reshape(dim, dim, -1, order="F")
    R = np.einsum("ip,pqc,jq->ijc", K, R, K.conj(), optimize=True)
    return R.reshape(dim * dim, -1, order="F")


class EnsemblePropagator:
    """The state engine: record-independent quadratic factors built once,
    cheap per-record linear factors.

    The annihilation-species linear factor commutes with its quadratic factor
    (and likewise for the creation species), so the quadratic exponentials
    are shared by every record; per record only nilpotent linear lifts are
    exponentiated (their Taylor series terminates on the truncation).  One
    mode keeps the quadratic core as a dense D^2 x D^2 matrix assembled from
    :func:`single_mode_exponentials`; more modes keep the sparse quadratic
    lifts and apply them with ``expm_multiply`` per record.

    ``blocks`` (the propagator blocks the factors came from) is needed only
    by :meth:`evolve_record`, which normal-orders a record's integrals.
    """

    def __init__(self, factors: EvolutionFactors, dim: int,
                 blocks: PropagatorBlocks | None = None):
        n = factors.n_modes
        base = replace(factors, r_under=np.zeros(n, dtype=complex),
                       l_under=np.zeros(n, dtype=complex), sigma=0.0)
        self.n_modes = n
        self.dim = dim
        self.blocks = blocks
        self.delta_prime = factors.delta_prime
        if n == 1:
            core = np.eye(dim * dim, dtype=complex)
            for K, M in single_mode_exponentials(base, dim):
                core = _apply_exponential(K, M, core, dim)
            self.core = core
            self._quadratic = ()
        else:
            self.core = None
            self._quadratic = tuple(s.tocsc() for s in
                                    evolution_superoperators(base, dim))
        d = dim ** n
        a_ops = _mode_lowering(n, dim)
        self._low_left = [_lift_left(op, d) for op in a_ops]
        self._low_right = [_lift_right(op.conj().T.tocsr(), d) for op in a_ops]
        self._raise_left = [_lift_left(op.conj().T.tocsr(), d) for op in a_ops]
        self._raise_right = [_lift_right(op, d) for op in a_ops]

    @classmethod
    def from_blocks(cls, blocks: PropagatorBlocks, dim: int) -> "EnsemblePropagator":
        """Engine for every record evolved over ``blocks``: disentangles once."""
        return cls(EvolutionFactors.from_blocks(blocks), dim, blocks=blocks)

    def _exp_apply(self, mats, coeffs, v):
        X = None
        for c, m in zip(coeffs, mats):
            if c != 0:
                X = c * m if X is None else X + c * m
        if X is None:
            return v
        out = v.copy()
        term = v
        for k in range(1, 4 * self.dim + 8):
            term = X @ term / k
            out = out + term
            if np.abs(term).max() < 1e-17 * max(1.0, np.abs(out).max()):
                break
        return out

    def _propagate(self, v: np.ndarray, l_under: np.ndarray,
                   r_under: np.ndarray) -> np.ndarray:
        coeffs_l = list(l_under) + list(np.conj(l_under))
        v = self._exp_apply(self._low_left + self._low_right, coeffs_l, v)
        if self.core is not None:
            v = self.core @ v
        else:
            for s in self._quadratic:
                v = expm_multiply(s, v)
        coeffs_r = list(r_under) + list(np.conj(r_under))
        return self._exp_apply(self._raise_left + self._raise_right, coeffs_r, v)

    def propagate_vec(self, v0: np.ndarray, l_under: np.ndarray,
                      r_under: np.ndarray, sigma: complex) -> np.ndarray:
        """exp(S_cre) exp(S_num) exp(S_ann) on vec(rho0) for one record,
        including the scalar exp(delta' + sigma).  No checks."""
        return self._propagate(v0, l_under, r_under) * np.exp(self.delta_prime
                                                              + sigma)

    def evolve(self, rho0: FockDensityMatrix, l_under: np.ndarray,
               r_under: np.ndarray, sigma: complex,
               tail_tol: float = DEFAULT_TAIL_TOL,
               include_scalar: bool = True) -> FockDensityMatrix:
        """Evolved, unnormalized state of one record, checked for Hermiticity
        and for tail population above ``tail_tol``.

        The result carries the record-independent scalar exp(delta' + sigma)
        when ``include_scalar`` (default); multiplying by exp(h) then gives
        the full linear-evolution state whose trace weights the record
        probability.
        """
        if rho0.n_modes != self.n_modes or rho0.dim_per_mode != self.dim:
            raise DimensionMismatch(
                f"state has {rho0.n_modes} mode(s) x {rho0.dim_per_mode} "
                f"levels; engine has {self.n_modes} x {self.dim}")
        v = self._propagate(rho0.rho.reshape(-1, order="F").astype(complex),
                            l_under, r_under)
        if include_scalar:
            v = v * np.exp(self.delta_prime + sigma)
        out = FockDensityMatrix(n_modes=self.n_modes, dim_per_mode=self.dim,
                                rho=v.reshape((rho0.dim, rho0.dim), order="F"),
                                is_normalized=False)
        out.check_hermitian()
        tail = out.tail_mass()
        if tail > tail_tol:
            raise TruncationOverflow(f"tail population {tail:.3e} > {tail_tol:.1e}")
        return out

    def evolve_record(self, rho0: FockDensityMatrix,
                      integrals: TrajectoryIntegrals) -> FockDensityMatrix:
        """:meth:`evolve` for one record's integrals (l', r'), normal-ordered
        against the engine's blocks."""
        if self.blocks is None:
            raise ValueError("evolve_record needs an engine built from blocks")
        n = self.n_modes
        l_u, r_u = normal_order_linear(self.blocks, integrals.l_prime,
                                       integrals.r_prime)
        sigma = reordering_scalar(self.blocks, integrals.r_prime)
        return self.evolve(rho0, l_u[:n], r_u[:n], sigma)


def apply_evolution(rho0: FockDensityMatrix, factors: EvolutionFactors,
                    tail_tol: float = DEFAULT_TAIL_TOL,
                    include_scalar: bool = True) -> FockDensityMatrix:
    """Evolved, unnormalized state of one record: a one-record call into
    :class:`EnsemblePropagator` (see :meth:`EnsemblePropagator.evolve`)."""
    engine = EnsemblePropagator(factors, rho0.dim_per_mode)
    return engine.evolve(rho0, factors.l_under, factors.r_under, factors.sigma,
                         tail_tol=tail_tol, include_scalar=include_scalar)


def normalize_and_trace(state: FockDensityMatrix) -> tuple[FockDensityMatrix, float]:
    """(state / trace, trace).

    For a state evolved by :func:`apply_evolution` with its default scalar,
    trace * exp(Re h) * (reference record density) is the physical record
    probability density; with ``include_scalar=False`` the weight carries
    exp(h + delta' + sigma) instead.
    """
    tr = state.trace()
    if not np.isfinite(tr.real) or tr.real <= 0:
        raise ZeroTrace(f"trace {tr} is not positive")
    if abs(tr.imag) > 1e-9 * abs(tr.real):
        raise ZeroTrace(f"trace {tr} has a large imaginary part")
    rho = state.rho / tr.real
    return (FockDensityMatrix(n_modes=state.n_modes,
                              dim_per_mode=state.dim_per_mode, rho=rho,
                              is_normalized=True), tr.real)


def expectation(state: FockDensityMatrix, observable: np.ndarray) -> complex:
    if observable.shape != state.rho.shape:
        raise DimensionMismatch(
            f"observable {observable.shape} vs state {state.rho.shape}")
    return complex(np.trace(observable @ state.rho))


def apply_evolution_power_series(rho0: FockDensityMatrix,
                                 factors: EvolutionFactors,
                                 max_order: int | None = None) -> FockDensityMatrix:
    """Single-mode alternative route: expand the partner-mode couplings of the
    fully normal-ordered evolution as a quadruple power series.

    Independent of the Kronecker-lift route; used as a cross-check.  The sum
    is truncated at total order max_order (default 4 * dim), a purely
    numerical choice.
    """
    if rho0.n_modes != 1:
        raise DimensionMismatch("power-series route is single-mode only")
    dim = rho0.dim_per_mode
    if max_order is None:
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
    l_p, lb_p = factors.L_prime[0, 0], factors.L_breve[0, 0]
    r_u, l_u = factors.r_under[0], factors.l_under[0]

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

    from math import factorial

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
    rho = rho * np.exp(factors.log_scalar)
    return FockDensityMatrix(n_modes=1, dim_per_mode=dim, rho=rho,
                             is_normalized=False)


def state_to_json(state: FockDensityMatrix) -> dict:
    return {
        "n_modes": state.n_modes,
        "dim_per_mode": state.dim_per_mode,
        "dim": state.dim,
        "rho_re": state.rho.real.ravel().tolist(),
        "rho_im": state.rho.imag.ravel().tolist(),
    }


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    w = np.linalg.eigvalsh(rho1 - rho2)
    return 0.5 * float(np.abs(w).sum())
