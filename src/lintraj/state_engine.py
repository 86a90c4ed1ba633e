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
they are applied on their own, in the same form as every other factor:
rho -> K rho K^dag with K = exp(sum_i l_i a_i) (or exp(sum_i r_i a_i^dag)),
a Kronecker product of closed-form triangular D x D matrices
(:func:`lowering_exp`).  For a single mode every term of a species commutes,
so each quadratic factor exponential splits into D x D exponentials, a
terminating sandwich series and, for the number factor, one small block per
m + n sector (:func:`single_mode_exponentials`); no D^2 x D^2 matrix is ever
exponentiated.  Two or more modes apply the sparse quadratic lifts with
``expm_multiply``.  :func:`apply_evolution` is a one-record call into the
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from math import factorial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from .errors import (
    DimensionMismatch,
    MatrixExpFailure,
    NonHermitianResult,
    TruncationOverflow,
    ZeroTrace,
)
from .lie_rep import (
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
def _lowering_exp_table(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(T, k) with T[m, n] = sqrt(n!/m!) / (n - m)! and k = n - m on and
    above the diagonal (T = 0 below it)."""
    T = np.array([[np.sqrt(factorial(n) / factorial(m)) / factorial(n - m)
                   if n >= m else 0.0 for n in range(dim)] for m in range(dim)])
    m, n = np.indices((dim, dim))
    return T, np.maximum(n - m, 0)


def lowering_exp(c: complex, dim: int) -> np.ndarray:
    """exp(c a) on a dim-level truncation, exactly: a is nilpotent there, so
    the series sum_k c^k a^k / k! ends and K[m, n] = c^(n-m)/(n-m)! sqrt(n!/m!).
    exp(c a^dag) is its transpose."""
    T, k = _lowering_exp_table(dim)
    return T * np.power(complex(c), k)


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

    def check_hermitian(self) -> None:
        scale = max(1.0, float(np.abs(self.rho).max()))
        dev = float(np.abs(self.rho - self.rho.conj().T).max())
        if dev > HERMITICITY_TOL * scale:
            raise NonHermitianResult(f"Hermiticity deviation {dev:.3e}")

    def purity(self) -> float:
        tr = self.trace().real
        return float(np.real(np.trace(self.rho @ self.rho)) / tr ** 2)


def vacuum_state(n_modes: int, dim: int) -> FockDensityMatrix:
    rho = np.zeros((dim ** n_modes, dim ** n_modes), dtype=complex)
    rho[0, 0] = 1.0
    return FockDensityMatrix(n_modes=n_modes, dim_per_mode=dim, rho=rho)


def fock_state(n_modes: int, dim: int, levels) -> FockDensityMatrix:
    """Product Fock state with one level per mode, each in [0, dim)."""
    levels = np.atleast_1d(levels)
    if levels.shape != (n_modes,):
        raise DimensionMismatch(f"{levels.size} Fock level(s) for {n_modes} mode(s)")
    if np.any(levels < 0) or np.any(levels >= dim):
        raise DimensionMismatch(f"Fock levels {levels.tolist()} outside "
                                f"0..{dim - 1} of a {dim}-level truncation")
    idx = 0
    for lv in levels:
        idx = idx * dim + int(lv)
    rho = np.zeros((dim ** n_modes, dim ** n_modes), dtype=complex)
    rho[idx, idx] = 1.0
    return FockDensityMatrix(n_modes=n_modes, dim_per_mode=dim, rho=rho)


def coherent_state(n_modes: int, dim: int, alpha) -> FockDensityMatrix:
    """Product coherent state, one amplitude per mode, renormalized on the
    truncation."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    if alpha.shape != (n_modes,):
        raise DimensionMismatch(f"{alpha.size} coherent amplitude(s) for "
                                f"{n_modes} mode(s)")
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

    r_under/l_under are the normal-ordered linear coefficients; the scalar
    exponent delta' + sigma is everything except the record scalar h."""

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
                    integrals: TrajectoryIntegrals | None = None) -> "EvolutionFactors":
        n = blocks.n_modes
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


def _apply_exponential(K: np.ndarray | None, M: sp.spmatrix | None,
                       V: np.ndarray, side: int) -> np.ndarray:
    """kron(conj(K), K) @ M @ V for vec(rho) columns V of a side x side rho
    (a vector or a (side^2, k) stack), with the Kronecker factor applied as
    K rho K^dag.  ``K`` or ``M`` may be None (identity)."""
    if M is not None:
        V = M @ V
    if K is None:
        return V
    R = V.reshape(side, side, -1, order="F").transpose(2, 0, 1)
    R = K @ R @ K.conj().T
    return R.transpose(1, 2, 0).reshape(V.shape, order="F")


class EnsemblePropagator:
    """The state engine: record-independent quadratic factors built once,
    cheap per-record linear factors.

    The annihilation-species linear factor commutes with its quadratic factor
    (and likewise for the creation species), so the quadratic exponentials
    are shared by every record.  Per record only the linear factors are
    applied, as rho -> K rho K^dag with K = kron_i exp(l_i a) before the
    quadratic factors and K = kron_i exp(r_i a)^T after them, each
    per-mode factor a closed-form D x D matrix (:func:`lowering_exp`).  One
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

    @classmethod
    def from_blocks(cls, blocks: PropagatorBlocks, dim: int) -> "EnsemblePropagator":
        """Engine for every record evolved over ``blocks``: disentangles once."""
        return cls(EvolutionFactors.from_blocks(blocks), dim, blocks=blocks)

    def propagate_vec(self, v0: np.ndarray, l_under: np.ndarray,
                      r_under: np.ndarray, sigma: complex) -> np.ndarray:
        """exp(S_cre) exp(S_num) exp(S_ann) on vec(rho0) for one record,
        including the scalar exp(delta' + sigma).  No checks."""
        side = self.dim ** self.n_modes
        k_l = reduce(np.kron, [lowering_exp(c, self.dim) for c in l_under])
        k_r = reduce(np.kron, [lowering_exp(c, self.dim) for c in r_under]).T
        v = _apply_exponential(k_l, None, v0, side)
        if self.core is not None:
            v = self.core @ v
        else:
            for s in self._quadratic:
                v = expm_multiply(s, v)
        v = _apply_exponential(k_r, None, v, side)
        return v * np.exp(self.delta_prime + sigma)

    def evolve(self, rho0: FockDensityMatrix, l_under: np.ndarray,
               r_under: np.ndarray, sigma: complex) -> FockDensityMatrix:
        """Evolved, unnormalized state of one record, checked for Hermiticity
        and for tail population above ``DEFAULT_TAIL_TOL``.

        The result carries the record-independent scalar exp(delta' + sigma);
        multiplying by exp(h) then gives the full linear-evolution state whose
        trace weights the record probability.
        """
        if rho0.n_modes != self.n_modes or rho0.dim_per_mode != self.dim:
            raise DimensionMismatch(
                f"state has {rho0.n_modes} mode(s) x {rho0.dim_per_mode} "
                f"levels; engine has {self.n_modes} x {self.dim}")
        v = self.propagate_vec(rho0.rho.reshape(-1, order="F").astype(complex),
                               l_under, r_under, sigma)
        if not np.all(np.isfinite(v)):
            raise MatrixExpFailure("evolved state has non-finite entries")
        out = FockDensityMatrix(n_modes=self.n_modes, dim_per_mode=self.dim,
                                rho=v.reshape((rho0.dim, rho0.dim), order="F"))
        out.check_hermitian()
        tail = out.tail_mass()
        if tail > DEFAULT_TAIL_TOL:
            raise TruncationOverflow(
                f"tail population {tail:.3e} > {DEFAULT_TAIL_TOL:.1e}")
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


def apply_evolution(rho0: FockDensityMatrix,
                    factors: EvolutionFactors) -> FockDensityMatrix:
    """Evolved, unnormalized state of one record: a one-record call into
    :class:`EnsemblePropagator` (see :meth:`EnsemblePropagator.evolve`)."""
    engine = EnsemblePropagator(factors, rho0.dim_per_mode)
    return engine.evolve(rho0, factors.l_under, factors.r_under, factors.sigma)


def normalize_and_trace(state: FockDensityMatrix) -> tuple[FockDensityMatrix, float]:
    """(state / trace, trace).

    For a state evolved by :func:`apply_evolution`, which carries the scalar
    exp(delta' + sigma), trace * exp(Re h) * (reference record density) is the
    physical record probability density.
    """
    tr = state.trace()
    if not np.isfinite(tr.real) or tr.real <= 0:
        raise ZeroTrace(f"trace {tr} is not positive")
    if abs(tr.imag) > 1e-9 * abs(tr.real):
        raise ZeroTrace(f"trace {tr} has a large imaginary part")
    rho = state.rho / tr.real
    return (FockDensityMatrix(n_modes=state.n_modes,
                              dim_per_mode=state.dim_per_mode, rho=rho),
            tr.real)


def expectation(state: FockDensityMatrix, observable: np.ndarray) -> complex:
    if observable.shape != state.rho.shape:
        raise DimensionMismatch(
            f"observable {observable.shape} vs state {state.rho.shape}")
    return complex(np.trace(observable @ state.rho))


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
