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

A record enters only through its integrals (l', r', h), so the quadratic
factors are record-independent: :class:`EvolutionFactors` holds them, and
:class:`EnsemblePropagator`, the one state engine, keeps their exponentials
for every record.  The trajectory-dependent linear factors commute with the
quadratic factors of the same species, so per record they are applied on
their own, in the same form as every other factor: rho -> K rho K^dag with
K = exp(sum_i l_i a_i) (or exp(sum_i r_i a_i^dag)), a Kronecker product of
closed-form triangular D x D matrices (:func:`lowering_exp`).  For a single
mode every term of a species commutes, so each quadratic factor exponential
splits into a D x D exponential and a superoperator that keeps either every
diagonal n - m of rho (the sandwich series, written down entry by entry) or
every m + n sector (the number factor).  Packed two diagonals or two sectors
to a block, such a superoperator is D blocks of D x D
(:class:`SlotOperator`); the two D x D exponentials and the D number blocks
come from one stacked numpy :func:`~lintraj._linalg.expm` call
(:func:`single_mode_exponentials`).  Each acts on the (D^2, S) stack of an
ensemble's records as a permutation, one batched matmul and the inverse
permutation; no D^2 x D^2 matrix is formed or exponentiated, and no scipy is
imported.  Two or more modes apply the sparse quadratic lifts with scipy's
``expm_multiply``, imported on first use.
:meth:`EnsemblePropagator.evolve_records` evolves, normal-orders and checks
a whole ensemble in one call; :func:`apply_evolution` is that call for one
record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import factorial

import numpy as np

from ._linalg import expm
from .errors import (
    DimensionMismatch,
    MatrixExpFailure,
    NonHermitianResult,
    ParameterOutOfRange,
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
# 170! is the largest factorial below the float64 limit: the factorial tables
# of a truncation of D levels reach (D - 1)!
_MAX_LEVELS = 171


def fock_operators(dim: int):
    """(a, a_dag, n) ladder matrices on a dim-level truncation."""
    if dim < 2:
        raise ValueError("need dim >= 2")
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    return a, a.T.copy(), np.diag(np.arange(dim, dtype=float))


def _check_factorial_levels(dim: int) -> None:
    """ParameterOutOfRange for a truncation whose factorials overflow the
    floats, before any of them is converted."""
    if dim > _MAX_LEVELS:
        raise ParameterOutOfRange(f"{dim} levels need {dim - 1}! as a float, "
                                  f"which overflows; the largest truncation "
                                  f"is {_MAX_LEVELS} levels")


@lru_cache(maxsize=32)
def _lowering_exp_table(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(T, k) with T[m, n] = sqrt(n!/m!) / (n - m)! and k = n - m on and
    above the diagonal (T = 0 below it)."""
    _check_factorial_levels(dim)
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
    """Per-mode lowering operators on the D^N product space (dense)."""
    a1, _, _ = fock_operators(dim)
    eye = np.eye(dim)
    return tuple(reduce(np.kron, [a1 if j == i else eye for j in range(n_modes)])
                 for i in range(n_modes))


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
    truncation.  ParameterOutOfRange for amplitudes, non-finite or too large,
    whose truncated state does not normalize to finite entries, and for a
    truncation past ``_MAX_LEVELS``."""
    _check_factorial_levels(dim)
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    if alpha.shape != (n_modes,):
        raise DimensionMismatch(f"{alpha.size} coherent amplitude(s) for "
                                f"{n_modes} mode(s)")
    psi = np.array([1.0], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):     # raised below
        for a in alpha:
            ns = np.arange(dim)
            coeff = np.exp(-abs(a) ** 2 / 2) * a ** ns / np.sqrt(
                np.array([float(factorial(n)) for n in ns]))
            psi = np.kron(psi, coeff)
        psi /= np.linalg.norm(psi)
    if not np.isfinite(psi).all():
        raise ParameterOutOfRange(f"coherent amplitudes {alpha.tolist()} do "
                                  f"not give a finite state on {dim} levels")
    return FockDensityMatrix(n_modes=n_modes, dim_per_mode=dim,
                             rho=np.outer(psi, psi.conj()))


@dataclass(frozen=True)
class EvolutionFactors:
    """Record-independent half of the three-factor evolution: the
    disentangled quadratic parameters of ``blocks``, split into their
    physical and partner halves, and the scalar exponent delta'.  A record's
    linear coefficients and sigma are normal-ordered against ``blocks``."""

    blocks: PropagatorBlocks
    R_prime: np.ndarray
    R_breve: np.ndarray
    D_under: np.ndarray
    D_breve: np.ndarray
    L_prime: np.ndarray
    L_breve: np.ndarray
    delta_prime: complex

    @property
    def n_modes(self) -> int:
        return self.blocks.n_modes

    @classmethod
    def from_blocks(cls, blocks: PropagatorBlocks) -> "EvolutionFactors":
        n = blocks.n_modes
        dis = disentangle_quadratic(blocks)
        return cls(
            blocks=blocks,
            R_prime=dis.R_prime[:n, :n], R_breve=dis.R_prime[:n, n:],
            D_under=dis.D_under[:n, :n], D_breve=dis.D_under[:n, n:],
            L_prime=dis.L_prime[:n, :n], L_breve=dis.L_prime[:n, n:],
            delta_prime=dis.delta_prime,
        )


def evolution_superoperators(factors: EvolutionFactors, dim: int):
    """(S_ann, S_num, S_cre) sparse lifts of the record-independent quadratic
    factors; the evolution applies exp(S_cre) exp(S_num) exp(S_ann), each
    with its species' linear factor, together with the scalar exponents.

    Each lift combines left action, the Hermiticity-pairing right action, and
    the cross (sandwich) term of its species.  Only the engine for two or
    more modes uses them, so scipy.sparse is imported here.
    """
    import scipy.sparse as sp

    def sandwich(left, right):
        # A rho B -> (B^T kron A) vec(rho)
        return sp.kron(right.T, left, format="csr")

    def weighted(total, coef, left, right, pair):
        # total + sum of coef[i, j] pair(left[i], right[j]) over the nonzero
        # coefficients, in row-major order
        for i, j in zip(*np.nonzero(coef)):
            total = total + coef[i, j] * pair(left[i], right[j])
        return total

    def species(coef, left, right):
        # rho -> x rho + rho x^dag, x = sum coef[i, j] left[i] right[j]
        x = weighted(sp.csr_matrix((d, d), dtype=complex), coef, left, right,
                     lambda p, q: p @ q)
        eye = sp.identity(d, format="csr")
        return sandwich(x, eye) + sandwich(eye, x.conj().T.tocsr())

    n = factors.n_modes
    a_ops = [sp.csr_matrix(op) for op in _mode_lowering(n, dim)]
    ad_ops = [op.conj().T.tocsr() for op in a_ops]
    d = dim ** n

    s_ann = weighted(species(factors.L_prime, a_ops, a_ops),
                     2.0 * factors.L_breve, a_ops, ad_ops, sandwich)
    s_num = weighted(weighted(species(factors.D_under, ad_ops, a_ops),
                              factors.D_breve, ad_ops, ad_ops, sandwich),
                     factors.D_breve.conj().T, a_ops, a_ops, sandwich)
    s_cre = weighted(species(factors.R_prime, ad_ops, ad_ops),
                     2.0 * factors.R_breve, ad_ops, a_ops, sandwich)
    return s_ann, s_num, s_cre


@lru_cache(maxsize=32)
def _slot_layouts(dim: int) -> tuple:
    """The diagonal and the sector layouts of column-stacked vec(rho), as
    (take, put) permutations: entry rho[m, n], at vec index m + n dim, sits
    in slot b dim + m of a layout, where b = (n - m) mod dim in the diagonal
    layout and b = (n + m) mod dim in the sector layout.

    So each block b of dim slots holds two whole diagonals, n - m = b and
    b - dim, or two whole m + n sectors, b and b + dim, ordered by m.
    ``put[j]`` is the slot of vec index j, and ``take`` its inverse."""
    j = np.arange(dim * dim)
    m, n = j % dim, j // dim
    layouts = []
    for block in ((n - m) % dim, (n + m) % dim):
        put = block * dim + m
        take = np.empty_like(put)
        take[put] = j
        layouts.append((take, put))
    return tuple(layouts)


@dataclass(frozen=True)
class SlotOperator:
    """A D^2 x D^2 operator on column-stacked vec(rho) that maps each block
    of a layout (:func:`_slot_layouts`) to itself, given as the (D, D, D)
    stack of its ``blocks``.  ``M @ V`` on a (D^2, S) stack V permutes V
    into the layout, applies the blocks as one batched matmul and permutes
    the result back, so each column only mixes with itself."""

    blocks: np.ndarray
    take: np.ndarray
    put: np.ndarray

    def __matmul__(self, V: np.ndarray) -> np.ndarray:
        dim = len(self.blocks)
        X = V.take(self.take, axis=0).astype(self.blocks.dtype, copy=False)
        Y = self.blocks @ X.reshape(dim, dim, -1)
        # the result goes back into X: one fresh stack fewer per call
        return Y.reshape(dim * dim, -1).take(self.put, axis=0, out=X)

    def toarray(self) -> np.ndarray:
        """The dense D^2 x D^2 matrix."""
        return self @ np.eye(len(self.put))


@lru_cache(maxsize=32)
def _raising_sandwich_table(dim: int) -> tuple:
    """(block, row, col, k, w): the raising sandwich series
    sum_k c^k / k! a^dag^k rho a^k takes rho[m - k, n - k] into rho[m, n]
    with weight w c^k, w = sqrt(m!/(m-k)!) sqrt(n!/(n-k)!) / k!.  Both
    entries lie on the diagonal n - m, so the series is the lower-triangular
    (row, col) = (m, m - k) entry of that block of the diagonal layout."""
    _check_factorial_levels(dim)
    levels = np.arange(dim)
    # root falling factorials rf[m, k] = sqrt(m!/(m-k)!), zero for k > m
    rf = np.ones((dim, dim))
    rf[:, 1:] = np.cumprod(np.sqrt(np.maximum(levels[:, None] - levels[None, :-1],
                                              0)), axis=1)
    k_fact = np.array([float(factorial(k)) for k in range(dim)])
    m, n, k = np.indices((dim, dim, dim)).reshape(3, -1)
    keep = k <= np.minimum(m, n)
    m, n, k = m[keep], n[keep], k[keep]
    return (n - m) % dim, m, m - k, k, rf[m, k] * rf[n, k] / k_fact[k]


def _sandwich_operator(c: complex, dim: int, raising: bool) -> SlotOperator:
    """exp(c S) for the sandwich S: rho -> a^dag rho a (``raising``) or
    a rho a^dag, on the diagonal layout.  The series ends after dim terms on
    the truncation; the lowering blocks are the transposes of the raising
    ones."""
    block, row, col, k, w = _raising_sandwich_table(dim)
    if not raising:
        row, col = col, row
    out = np.zeros((dim, dim, dim), dtype=complex)
    out[block, row, col] = w * np.power(complex(c), k)
    return SlotOperator(out, *_slot_layouts(dim)[0])


def _number_generators(d_under: complex, d_breve: complex, dim: int) -> np.ndarray:
    """Sector-layout blocks of the one-mode number factor
    S_num rho = d_u a^dag a rho + rho conj(d_u) a^dag a
    + d_breve a^dag rho a^dag + conj(d_breve) a rho a.  It keeps m + n: on
    a sector's entries rho[m, n] it is tridiagonal, with d_u m + conj(d_u) n
    on the diagonal, and it takes rho[m - 1, n + 1] (a^dag rho a^dag) and
    rho[m + 1, n - 1] (a rho a) from the neighbouring slots."""
    m, n = np.indices((dim, dim)).reshape(2, -1)
    block = (m + n) % dim
    out = np.zeros((dim, dim, dim), dtype=complex)
    out[block, m, m] = d_under * m + np.conj(d_under) * n
    up = (m > 0) & (n < dim - 1)
    out[block[up], m[up], m[up] - 1] = d_breve * np.sqrt(m[up] * (n[up] + 1.0))
    dn = (m < dim - 1) & (n > 0)
    out[block[dn], m[dn], m[dn] + 1] = (np.conj(d_breve)
                                        * np.sqrt((m[dn] + 1.0) * n[dn]))
    return out


def single_mode_exponentials(factors: EvolutionFactors, dim: int) -> list:
    """exp(S_ann), exp(S_num), exp(S_cre) of one mode's quadratic factors as
    (K, M) pairs with exp(S) = kron(conj(K), K) @ M, i.e. rho -> K (M rho) K^dag.

    Every term of a species commutes with the others.  The annihilation
    factor is K = exp(L' a^2) with M the terminating sandwich series
    sum_k (2 L_breve)^k / k! a^k rho a^dag^k; the creation factor is the same
    with a^dag for a; the number factor has K = None and M its sector-block
    exponential.  Each M is a :class:`SlotOperator`: the sandwich series are
    written down entry by entry on the diagonal layout, and the number
    factor's D blocks of two sectors each are exponentiated in the same
    stacked :func:`expm` call as the two K.  No matrix larger than D x D is
    exponentiated.
    """
    if factors.n_modes != 1:
        raise DimensionMismatch("structured exponentials are single-mode only")
    # the sandwich series need (dim - 1)! as a float: fail before any expm
    _check_factorial_levels(dim)
    a, ad, _ = fock_operators(dim)
    exps = expm(np.concatenate([
        [factors.L_prime[0, 0] * (a @ a), factors.R_prime[0, 0] * (ad @ ad)],
        _number_generators(factors.D_under[0, 0], factors.D_breve[0, 0], dim)]))
    return [(exps[0], _sandwich_operator(2.0 * factors.L_breve[0, 0], dim,
                                         raising=False)),
            (None, SlotOperator(exps[2:], *_slot_layouts(dim)[1])),
            (exps[1], _sandwich_operator(2.0 * factors.R_breve[0, 0], dim,
                                         raising=True))]


def _apply_exponential(K: np.ndarray, M: SlotOperator | None,
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
    two D x D exponentials, and the two sandwich series and the number
    factor as :class:`SlotOperator` stacks of D blocks of D x D, all from
    numpy alone.  They are applied straight to the (D^2, S) stack of a
    call's records, each M as two index permutations around one batched
    matmul; no D^2 x D^2 matrix is formed or exponentiated.  More modes keep
    the sparse quadratic lifts of :func:`evolution_superoperators` and apply
    them with scipy's ``expm_multiply``, one record at a time.

    :meth:`evolve_records` evolves a whole ensemble in one pass: one
    normal ordering of the (S, 2N) stack of integrals against the factors'
    blocks, one application of the factors, and the finiteness, Hermiticity
    and tail checks over the stack.  :meth:`propagate_vec` is its unchecked
    one-record call on normal-ordered coefficients.
    """

    def __init__(self, factors: EvolutionFactors, dim: int):
        self.n_modes = factors.n_modes
        self.dim = dim
        self.blocks = factors.blocks
        self.delta_prime = factors.delta_prime
        if self.n_modes == 1:
            self._exponentials = tuple(single_mode_exponentials(factors, dim))
            self._lifts = ()
        else:
            self._exponentials = ()
            self._lifts = tuple(s.tocsc() for s in
                                evolution_superoperators(factors, dim))

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
            from scipy.sparse.linalg import expm_multiply

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
        (D^2N, S) stack.  Each state carries the scalar exp(delta' + sigma)
        of its record; multiplying by exp(h) then gives the full
        linear-evolution state whose trace weights the record probability.
        A failing record raises an error whose message starts with its
        index."""
        if rho0.n_modes != self.n_modes or rho0.dim_per_mode != self.dim:
            raise DimensionMismatch(
                f"state has {rho0.n_modes} mode(s) x {rho0.dim_per_mode} "
                f"levels; engine has {self.n_modes} x {self.dim}")
        v0 = rho0.rho.reshape(-1, order="F").astype(complex)
        if not integrals_list:
            return []
        n = self.n_modes
        l_prime = np.array([ints.l_prime for ints in integrals_list])
        r_prime = np.array([ints.r_prime for ints in integrals_list])
        # integrals too large for the floats overflow silently here; the
        # check names the record whose state is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            l_u, r_u = normal_order_linear(self.blocks, l_prime, r_prime)
            sigma = reordering_scalar(self.blocks, r_prime)
            V = self._evolve_stack(v0, l_u[:, :n], r_u[:, :n], sigma)
        return self._checked_states(V)


def apply_evolution(rho0: FockDensityMatrix, blocks: PropagatorBlocks,
                    integrals: TrajectoryIntegrals) -> FockDensityMatrix:
    """Evolved, unnormalized state of one record over ``blocks``:
    :meth:`EnsemblePropagator.evolve_records` on that record alone."""
    engine = EnsemblePropagator(EvolutionFactors.from_blocks(blocks),
                                rho0.dim_per_mode)
    return engine.evolve_records(rho0, [integrals])[0]


def normalize_and_trace(state: FockDensityMatrix) -> tuple[FockDensityMatrix, float]:
    """(state / trace, trace).

    For a state evolved by :meth:`EnsemblePropagator.evolve_records` (or
    :func:`apply_evolution`), which carries the scalar exp(delta' + sigma)
    of its record, trace * exp(Re h) * (reference record density) is the
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
