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
so each quadratic factor exponential splits into a D x D exponential, a
sandwich series written down entry by entry and, for the number factor, one
small block per m + n sector (:func:`single_mode_exponentials`).  These act
directly on the (D^2, S) stack of an ensemble's records; no D^2 x D^2
matrix is formed or exponentiated.  Two or more modes apply the sparse
quadratic lifts with ``expm_multiply``.  :meth:`EnsemblePropagator.evolve_records`
evolves a whole ensemble in one call, and :func:`apply_evolution` is a
one-record call into the engine with the same checks.
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


def lowering_exp(c: complex | np.ndarray, dim: int) -> np.ndarray:
    """exp(c a) on a dim-level truncation, exactly: a is nilpotent there, so
    the series sum_k c^k a^k / k! ends and K[m, n] = c^(n-m)/(n-m)! sqrt(n!/m!).
    exp(c a^dag) is its transpose.  An array ``c`` gives one matrix per
    entry, stacked along its leading axes."""
    T, k = _lowering_exp_table(dim)
    powers = np.power(np.asarray(c, dtype=complex)[..., None], np.arange(dim))
    return T * powers[..., k]


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
        return float(_tail_masses(self.rho[None], self.n_modes,
                                  self.dim_per_mode)[0])

    def check_hermitian(self) -> None:
        dev, scale = _hermiticity_deviation(self.rho[None])
        if dev[0] > HERMITICITY_TOL * scale[0]:
            raise NonHermitianResult(f"Hermiticity deviation {dev[0]:.3e}")

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
    """Physical-half parameters of the three-factor evolution.

    r_under/l_under are the normal-ordered linear coefficients; the scalar
    exponent delta' + sigma is everything except the record scalar h."""

    n_modes: int
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
            n_modes=n,
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


@lru_cache(maxsize=32)
def _raising_sandwich_table(dim: int) -> tuple:
    """(out, inn, k, w): the raising sandwich series
    sum_k c^k / k! a^dag^k rho a^k on column-stacked vec(rho) has the entry
    w c^k at [out, inn], with out = m + n dim taking rho[m - k, n - k] at
    inn = out - k (dim + 1) and w = sqrt(m!/(m-k)!) sqrt(n!/(n-k)!) / k!."""
    levels = np.arange(dim)
    # root falling factorials rf[m, k] = sqrt(m!/(m-k)!), zero for k > m
    rf = np.ones((dim, dim))
    rf[:, 1:] = np.cumprod(np.sqrt(np.maximum(levels[:, None] - levels[None, :-1],
                                              0)), axis=1)
    k_fact = np.array([float(factorial(k)) for k in range(dim)])
    m, n, k = np.indices((dim, dim, dim)).reshape(3, -1)
    keep = k <= np.minimum(m, n)
    m, n, k = m[keep], n[keep], k[keep]
    out = m + n * dim
    return out, out - k * (dim + 1), k, rf[m, k] * rf[n, k] / k_fact[k]


def _sandwich_exp(c: complex, dim: int, raising: bool) -> sp.csr_matrix:
    """exp(c S) for the sandwich S: rho -> a^dag rho a (``raising``) or
    a rho a^dag: the series ends after dim terms on the truncation.  The
    lowering series is the transpose of the raising one."""
    out, inn, k, w = _raising_sandwich_table(dim)
    rows, cols = (out, inn) if raising else (inn, out)
    return sp.csr_matrix((w * np.power(complex(c), k), (rows, cols)),
                         shape=(dim * dim, dim * dim))


def _number_sector_exp(d_under: complex, d_breve: complex,
                       dim: int) -> sp.csr_matrix:
    """exp(S_num) of one mode, one m + n sector at a time.  On the sector's
    entries rho[m, s - m] the number factor d_u a^dag a rho
    + rho conj(d_u) a^dag a + d_breve a^dag rho a^dag + conj(d_breve) a rho a
    is tridiagonal: d_u m + conj(d_u) (s - m) on the diagonal, and it takes
    rho[m - 1, s - m + 1] (a^dag rho a^dag) and rho[m + 1, s - m - 1]
    (a rho a) from the neighbouring entries."""
    rows, cols, vals = [], [], []
    for s in range(2 * dim - 1):
        m = np.arange(max(0, s - dim + 1), min(s, dim - 1) + 1)
        idx = m + (s - m) * dim
        block = np.diag(d_under * m + np.conj(d_under) * (s - m))
        block[1:, :-1] += np.diag(d_breve * np.sqrt(m[1:] * (s - m[1:] + 1.0)))
        block[:-1, 1:] += np.diag(np.conj(d_breve)
                                  * np.sqrt((m[:-1] + 1.0) * (s - m[:-1])))
        rows.append(np.repeat(idx, idx.size))
        cols.append(np.tile(idx, idx.size))
        vals.append(expm(block).ravel())
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
    exponential.  The sandwich series are written down entry by entry, and
    only D x D matrices and the number sectors are exponentiated.
    """
    if factors.n_modes != 1:
        raise DimensionMismatch("structured exponentials are single-mode only")
    a, ad, _ = fock_operators(dim)
    ann = (expm(factors.L_prime[0, 0] * (a @ a) + factors.l_under[0] * a),
           _sandwich_exp(2.0 * factors.L_breve[0, 0], dim, raising=False))
    num = (None, _number_sector_exp(factors.D_under[0, 0],
                                    factors.D_breve[0, 0], dim))
    cre = (expm(factors.R_prime[0, 0] * (ad @ ad) + factors.r_under[0] * ad),
           _sandwich_exp(2.0 * factors.R_breve[0, 0], dim, raising=True))
    return [ann, num, cre]


def _apply_exponential(K: np.ndarray, M: sp.spmatrix | None,
                       V: np.ndarray, side: int) -> np.ndarray:
    """kron(conj(K), K) @ M @ V for a (side^2, S) stack V of vec(rho)
    columns, with the Kronecker factor applied as K rho K^dag.  ``K`` is one
    side x side matrix or an (S, side, side) stack, one per column (a single
    column of V is then shared by every K); ``M`` may be None (identity)."""
    if M is not None:
        V = M @ V
    R = V.reshape(side, side, -1, order="F").transpose(2, 0, 1)
    R = K @ R @ K.conj().swapaxes(-1, -2)
    return R.transpose(1, 2, 0).reshape(side * side, -1, order="F")


def _kron_stack(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.kron of the matching matrices of two (..., ., .) stacks."""
    *lead, p, q = A.shape
    r, s = B.shape[-2:]
    return np.einsum("...ij,...kl->...ikjl", A, B).reshape(*lead, p * r, q * s)


def _hermiticity_deviation(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max |rho - rho^dag|, max(1, max |rho|)) of each state of an
    (S, d, d) stack."""
    dev = np.abs(R - R.conj().swapaxes(1, 2)).max(axis=(1, 2))
    return dev, np.maximum(1.0, np.abs(R).max(axis=(1, 2)))


def _tail_masses(R: np.ndarray, n_modes: int, dim: int) -> np.ndarray:
    """Largest relative population of any mode's top Fock level, for each
    state of an (S, D^N, D^N) stack; inf for a state whose trace is <= 0."""
    pops = np.real(np.diagonal(R, axis1=1, axis2=2)).reshape(
        (len(R),) + (dim,) * n_modes)
    total = pops.reshape(len(R), -1).sum(axis=1)
    top = np.zeros(len(R))
    for axis in range(1, n_modes + 1):
        top = np.maximum(top, np.abs(np.take(pops, dim - 1, axis=axis)
                                     .reshape(len(R), -1).sum(axis=1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(total <= 0, np.inf, top / np.abs(total))


class EnsemblePropagator:
    """The state engine: record-independent quadratic factors built once,
    cheap per-record linear factors, any number of records per call.

    The annihilation-species linear factor commutes with its quadratic factor
    (and likewise for the creation species), so the quadratic exponentials
    are shared by every record.  Per record only the linear factors are
    applied, as rho -> K rho K^dag with K = kron_i exp(l_i a) before the
    quadratic factors and K = kron_i exp(r_i a)^T after them, each
    per-mode factor a closed-form D x D matrix (:func:`lowering_exp`).

    One mode keeps the three (K, M) pairs of :func:`single_mode_exponentials`:
    two D x D exponentials, two sandwich series written down in closed form
    and the number factor's sector blocks.  They are applied straight to the
    (D^2, S) stack of a call's records; no D^2 x D^2 matrix is formed or
    exponentiated.  More modes keep the sparse quadratic lifts of
    :func:`evolution_superoperators` and apply them with ``expm_multiply``,
    one record at a time.

    :meth:`evolve_records` evolves a whole ensemble in one pass: one
    normal ordering of the (S, 2N) stack of integrals, one application of
    the factors, and the finiteness, Hermiticity and tail checks over the
    stack.  :meth:`propagate_vec` is its unchecked one-record call.
    ``blocks`` (the propagator blocks the factors came from) is needed only
    by :meth:`evolve_records`, which normal-orders integrals against them.
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
            self._exponentials = tuple(single_mode_exponentials(base, dim))
            self._lifts = ()
        else:
            self._exponentials = ()
            self._lifts = tuple(s.tocsc() for s in
                                evolution_superoperators(base, dim))

    @classmethod
    def from_blocks(cls, blocks: PropagatorBlocks, dim: int) -> "EnsemblePropagator":
        """Engine for every record evolved over ``blocks``: disentangles once."""
        return cls(EvolutionFactors.from_blocks(blocks), dim, blocks=blocks)

    def _linear_factors(self, coeffs: np.ndarray) -> np.ndarray:
        """(..., S, D^N, D^N) stacks of kron_i exp(c_i a) for (..., S, N)
        coefficients."""
        per_mode = lowering_exp(coeffs, self.dim)        # (..., S, N, D, D)
        return reduce(_kron_stack, [per_mode[..., i, :, :]
                                    for i in range(self.n_modes)])

    def _evolve_stack(self, v0: np.ndarray, l_under: np.ndarray,
                      r_under: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """(D^2N, S) stack of vec(rho) evolved from vec(rho0) ``v0`` by S
        records' normal-ordered (S, N) ``l_under``, ``r_under`` and (S,)
        ``sigma``, scalar exp(delta' + sigma) included.  No checks."""
        side = self.dim ** self.n_modes
        k_l, k_r = self._linear_factors(np.array([l_under, r_under]))
        k_r = k_r.swapaxes(1, 2)
        v0 = v0.reshape(-1, 1)
        if self._exponentials:
            # every factor of a species commutes with the others, so each
            # record's K joins the shared K of its species, and M_ann acts
            # once on rho0 for the whole stack
            (k_ann, m_ann), (_, m_num), (k_cre, m_cre) = self._exponentials
            V = _apply_exponential(k_ann @ k_l, m_ann, v0, side)
            V = _apply_exponential(k_r @ k_cre, m_cre, m_num @ V, side)
        else:
            # one column per expm_multiply call: a many-column call was
            # measured slower than the same columns one at a time
            V = _apply_exponential(k_l, None, v0, side)
            V = np.column_stack([reduce(lambda v, s: expm_multiply(s, v),
                                        self._lifts, v) for v in V.T])
            V = _apply_exponential(k_r, None, V, side)
        # an overflowing scalar is reported by the finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            return V * np.exp(self.delta_prime + sigma)

    def _checked_states(self, V: np.ndarray) -> list[FockDensityMatrix]:
        """The states of a (D^2N, S) stack, after checking each for finite
        entries, Hermiticity and tail population above ``DEFAULT_TAIL_TOL``.
        The first failing record raises an error whose message starts with
        its index."""
        side = self.dim ** self.n_modes
        R = V.reshape(side, side, -1, order="F").transpose(2, 0, 1)
        finite = np.isfinite(R).all(axis=(1, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            dev, scale = _hermiticity_deviation(R)
            tail = _tail_masses(R, self.n_modes, self.dim)
        skewed = dev > HERMITICITY_TOL * scale
        spilled = tail > DEFAULT_TAIL_TOL
        bad = np.flatnonzero(~finite | skewed | spilled)
        if bad.size:
            i = bad[0]
            if not finite[i]:
                raise MatrixExpFailure(f"record {i}: evolved state has "
                                       "non-finite entries")
            if skewed[i]:
                raise NonHermitianResult(
                    f"record {i}: Hermiticity deviation {dev[i]:.3e}")
            raise TruncationOverflow(f"record {i}: tail population "
                                     f"{tail[i]:.3e} > {DEFAULT_TAIL_TOL:.1e}")
        return [FockDensityMatrix(n_modes=self.n_modes, dim_per_mode=self.dim,
                                  rho=rho) for rho in R]

    def _check_initial(self, rho0: FockDensityMatrix) -> np.ndarray:
        """vec(rho0), after checking that rho0 lives on the engine's modes."""
        if rho0.n_modes != self.n_modes or rho0.dim_per_mode != self.dim:
            raise DimensionMismatch(
                f"state has {rho0.n_modes} mode(s) x {rho0.dim_per_mode} "
                f"levels; engine has {self.n_modes} x {self.dim}")
        return rho0.rho.reshape(-1, order="F").astype(complex)

    def propagate_vec(self, v0: np.ndarray, l_under: np.ndarray,
                      r_under: np.ndarray, sigma: complex) -> np.ndarray:
        """exp(S_cre) exp(S_num) exp(S_ann) on vec(rho0) for one record,
        including the scalar exp(delta' + sigma).  No checks."""
        return self._evolve_stack(np.asarray(v0), np.asarray(l_under)[None],
                                  np.asarray(r_under)[None],
                                  np.array([sigma]))[:, 0]

    def evolve_records(self, rho0: FockDensityMatrix,
                       integrals_list) -> list[FockDensityMatrix]:
        """Evolved, unnormalized states of an ensemble's records, in one pass:
        the integrals (l', r') are normal-ordered against the engine's blocks
        as one (S, 2N) stack, and the states evolved and checked as one
        (D^2N, S) stack.  Each state carries the record-independent scalar
        exp(delta' + sigma); multiplying by exp(h) then gives the full
        linear-evolution state whose trace weights the record probability.
        A failing record raises an error whose message starts with its
        index."""
        v0 = self._check_initial(rho0)
        if not integrals_list:
            return []
        if self.blocks is None:
            raise ValueError("normal ordering needs an engine built from blocks")
        n = self.n_modes
        l_prime = np.array([ints.l_prime for ints in integrals_list])
        r_prime = np.array([ints.r_prime for ints in integrals_list])
        l_u, r_u = normal_order_linear(self.blocks, l_prime, r_prime)
        sigma = reordering_scalar(self.blocks, r_prime)
        return self._checked_states(
            self._evolve_stack(v0, l_u[:, :n], r_u[:, :n], sigma))


def apply_evolution(rho0: FockDensityMatrix,
                    factors: EvolutionFactors) -> FockDensityMatrix:
    """Evolved, unnormalized state of one record: a one-record call into
    :class:`EnsemblePropagator`, checked as
    :meth:`EnsemblePropagator.evolve_records` checks each record."""
    engine = EnsemblePropagator(factors, rho0.dim_per_mode)
    v = engine.propagate_vec(engine._check_initial(rho0), factors.l_under,
                             factors.r_under, factors.sigma)
    return engine._checked_states(v[:, None])[0]


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
