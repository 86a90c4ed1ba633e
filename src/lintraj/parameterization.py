"""Generator parameterization of the vectorized (doubled-space) evolution.

The deterministic part of the one-step evolution is a quadratic form in the
doubled mode vector ``b = (a_1..a_N, t_1..t_N)`` (physical modes followed by
their right-multiplication partners):

    Q = b^dag R b^(dag.T) + b^dag D b + b^T L b + q0

and the stochastic part is linear, ``dL(t) = b^dag dr + dl b`` with
``dl = y^T dt W_l`` and ``dr^T = y^T dt W_r``.  This module computes
``(R, D, L, q0)`` and ``(W_l, W_r)`` from a :class:`~lintraj.system.SystemSpec`.

Everything here is exact normal-ordered operator algebra on coefficient
arrays; no truncation is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .system import SystemSpec

BLOCK_TOL = 1e-10


@lru_cache(maxsize=16)
def quadrature_expansion(n_modes: int) -> np.ndarray:
    """Matrix U with x_m = sum_mu U[m, mu] b_mu + conj(U[m, mu]) b_mu^dag.

    Columns for the partner modes (mu >= N) are zero: quadratures involve
    physical modes only.  Built once per mode count.
    """
    u = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    for k in range(n_modes):
        u[2 * k, k] = 1.0 / np.sqrt(2.0)
        u[2 * k + 1, k] = -1.0j / np.sqrt(2.0)
    u.setflags(write=False)
    return u


@lru_cache(maxsize=16)
def half_swap(n_modes: int) -> np.ndarray:
    """2N x 2N permutation exchanging the physical and partner halves."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    out = np.block([[zero, eye], [eye, zero]])
    out.setflags(write=False)
    return out


@dataclass
class QuadraticForm:
    """Normal-ordered operator ``b^dag R b^(dag.T) + b^dag D b + b^T L b
    + b^dag lin_r + lin_l b + const`` on the doubled mode space."""

    n: int  # number of physical modes
    const: complex = 0.0
    lin_l: np.ndarray | None = None  # row coefficients of b
    lin_r: np.ndarray | None = None  # column coefficients of b^dag
    R: np.ndarray | None = None
    D: np.ndarray | None = None
    L: np.ndarray | None = None

    def __post_init__(self):
        m = 2 * self.n
        if self.lin_l is None:
            self.lin_l = np.zeros(m, dtype=complex)
        if self.lin_r is None:
            self.lin_r = np.zeros(m, dtype=complex)
        for name in ("R", "D", "L"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros((m, m), dtype=complex))

    def symmetrized(self) -> "QuadraticForm":
        """Canonical form: R and L symmetric (b^dag b^dag and b b commute)."""
        return QuadraticForm(
            n=self.n, const=self.const,
            lin_l=self.lin_l.copy(), lin_r=self.lin_r.copy(),
            R=(self.R + self.R.T) / 2.0, D=self.D.copy(),
            L=(self.L + self.L.T) / 2.0,
        )

    def __add__(self, other: "QuadraticForm") -> "QuadraticForm":
        return QuadraticForm(
            n=self.n, const=self.const + other.const,
            lin_l=self.lin_l + other.lin_l, lin_r=self.lin_r + other.lin_r,
            R=self.R + other.R, D=self.D + other.D, L=self.L + other.L,
        )

    def scaled(self, z: complex) -> "QuadraticForm":
        return QuadraticForm(n=self.n, const=z * self.const, lin_l=z * self.lin_l,
                             lin_r=z * self.lin_r, R=z * self.R, D=z * self.D,
                             L=z * self.L)

    def check_block_structure(self) -> None:
        """Conjugation-pairing structure required for Hermiticity preservation.

        For R and L (symmetric full matrices): lower-right block is the
        conjugate of the upper-left, the breve block is Hermitian, and the
        lower-left is its transpose.  (For single-mode real systems the breve
        blocks are additionally real symmetric, but that is not generic.)
        For D: lower-left is the conjugate of the breve block, lower-right the
        conjugate of the upper-left.
        """
        n = self.n
        resid = []
        for full in (self.R, self.L):
            a, b = full[:n, :n], full[:n, n:]
            c, d = full[n:, :n], full[n:, n:]
            resid += [np.abs(d - a.conj()).max(), np.abs(a - a.T).max(),
                      np.abs(b - b.conj().T).max(), np.abs(c - b.T).max()]
        a, b = self.D[:n, :n], self.D[:n, n:]
        c, d = self.D[n:, :n], self.D[n:, n:]
        resid += [np.abs(d - a.conj()).max(), np.abs(c - b.conj()).max()]
        worst = max(float(r) for r in resid)
        scale = max(1.0, *(float(np.abs(x).max()) for x in (self.R, self.D, self.L)))
        if worst > BLOCK_TOL * scale:
            raise ValueError(f"generator violates block pairing: residual {worst:.3e}")


def product_of_linear(n: int, f1: np.ndarray, g1: np.ndarray,
                      f2: np.ndarray, g2: np.ndarray) -> QuadraticForm:
    """Normal-order the product (f1 b + g1 b^dag)(f2 b + g2 b^dag).

    The lowering-raising cross term contributes the commutator scalar
    ``f1 . g2``.
    """
    return QuadraticForm(
        n=n,
        const=f1 @ g2,
        R=np.outer(g1, g2),
        D=np.outer(g1, f2) + np.outer(g2, f1),
        L=np.outer(f1, f2),
    )


@dataclass(frozen=True)
class NoiseCouplings:
    """Record-independent linear couplings: dl = y^T dt W_l, dr^T = y^T dt W_r."""

    n_modes: int
    W_l: np.ndarray
    W_r: np.ndarray


def _x_linear_forms(spec: SystemSpec):
    """(f, g) coefficient rows for each quadrature x_m and its partner copy."""
    u = quadrature_expansion(spec.n_modes)
    swap = half_swap(spec.n_modes)
    x_forms = [(u[m, :], u[m, :].conj()) for m in range(2 * spec.n_modes)]
    xt_forms = [(u[m, :].conj() @ swap, u[m, :] @ swap) for m in range(2 * spec.n_modes)]
    return x_forms, xt_forms


def generator_forms(spec: SystemSpec) -> QuadraticForm:
    """Assemble the full deterministic generator as a normal-ordered form.

    Terms: the Hamiltonian commutator piece, the dissipators, and the
    deterministic measurement back-action (minus half the squared sum of the
    monitored coupling operators and their partner copies).
    """
    n = spec.n_modes
    u = quadrature_expansion(n)
    swap = half_swap(n)
    total = QuadraticForm(n=n)

    # Hamiltonian: -i H + i H~ with H = x^T G x / 2.
    x_forms, xt_forms = _x_linear_forms(spec)
    for m in range(2 * n):
        for p in range(2 * n):
            gmp = spec.G[m, p]
            if gmp == 0.0:
                continue
            fm, gm = x_forms[m]
            fp, gp = x_forms[p]
            total = total + product_of_linear(n, fm, gm, fp, gp).scaled(-0.5j * gmp)
            fm, gm = xt_forms[m]
            fp, gp = xt_forms[p]
            total = total + product_of_linear(n, fm, gm, fp, gp).scaled(+0.5j * gmp)

    # Dissipators: sum_k [ c~_k c_k - c_k^dag c_k / 2 - (c_k^dag c_k)~ / 2 ].
    cu = spec.C @ u            # c_k = cu[k] . b + cv[k] . b^dag
    cv = spec.C @ u.conj()
    for k in range(spec.n_channels):
        f_c, g_c = cu[k], cv[k]
        f_cd, g_cd = cv[k].conj(), cu[k].conj()
        f_ct, g_ct = (cu[k].conj() @ swap), (cv[k].conj() @ swap)
        f_cdt, g_cdt = (cv[k] @ swap), (cu[k] @ swap)
        total = total + product_of_linear(n, f_ct, g_ct, f_c, g_c)
        total = total + product_of_linear(n, f_cd, g_cd, f_c, g_c).scaled(-0.5)
        total = total + product_of_linear(n, f_cdt, g_cdt, f_ct, g_ct).scaled(-0.5)

    # Measurement back-action: -(1/2) sum_k S_k S_k with S_k the k-th row pair.
    couplings = compute_noise_couplings(spec)
    for k in range(2 * spec.n_channels):
        f_s, g_s = couplings.W_l[k], couplings.W_r[k]
        if not (np.any(f_s) or np.any(g_s)):
            continue
        total = total + product_of_linear(n, f_s, g_s, f_s, g_s).scaled(-0.5)

    return total.symmetrized()


def compute_generator(spec: SystemSpec) -> QuadraticForm:
    """The deterministic generator (R, D, L) with its scalar q0 as ``const``,
    for a validated spec, by normal-ordered operator algebra
    (:func:`generator_forms`); its block pairing is checked."""
    gen = generator_forms(spec)
    gen.check_block_structure()
    return gen


def compute_noise_couplings(spec: SystemSpec) -> NoiseCouplings:
    """Constant matrices mapping a current sample to the linear increment."""
    u = quadrature_expansion(spec.n_modes)
    swap = half_swap(spec.n_modes)
    md_c = spec.M.conj().T @ spec.C
    mt_cc = spec.M.T @ spec.C.conj()
    W_l = md_c @ u + mt_cc @ u.conj() @ swap
    W_r = md_c @ u.conj() + mt_cc @ u @ swap
    return NoiseCouplings(n_modes=spec.n_modes, W_l=W_l, W_r=W_r)
