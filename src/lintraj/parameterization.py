"""Generator parameterization of the vectorized (doubled-space) evolution.

The deterministic part of the one-step evolution is a quadratic form in the
doubled mode vector ``b = (a_1..a_N, t_1..t_N)`` (physical modes followed by
their right-multiplication partners):

    Q = b^dag R b^(dag.T) + b^dag D b + b^T L b + q0

and the stochastic part is linear, ``dL(t) = b^dag dr + dl b`` with
``dl = y^T dt W_l`` and ``dr^T = y^T dt W_r``.  This module computes
``(R, D, L, q0)`` and ``(W_l, W_r)`` from a :class:`~lintraj.system.SystemSpec`.

Every generator term is a product of two operators linear in ``b``, so each
of its six families (the commutator with H, from the left and from the
partner side; the three dissipator terms; the measurement back-action) is
one normal-ordered bilinear contraction of the spec's coefficient matrices.
This is exact operator algebra on coefficient arrays; no truncation is
involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterOutOfRange
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
        worst = float(np.max(resid))
        scale = max(1.0, *(float(np.abs(x).max()) for x in (self.R, self.D, self.L)))
        if not worst <= BLOCK_TOL * scale:      # a NaN residual fails too
            raise ValueError(f"generator violates block pairing: residual {worst:.3e}")


@dataclass(frozen=True)
class NoiseCouplings:
    """Record-independent linear couplings: dl = y^T dt W_l, dr^T = y^T dt W_r."""

    n_modes: int
    W_l: np.ndarray
    W_r: np.ndarray


def _bilinear(c, f1, g1, f2, g2):
    """Normal-ordered (const, R, D, L) of sum_mp c[m, p] (f1[m] b + g1[m] b^dag)
    (f2[p] b + g2[p] b^dag): each product orders to g1 g2 b^dag b^dag
    + (g1 f2 + g2 f1) b^dag b + f1 f2 b b plus the commutator scalar f1 . g2."""
    fc, gc = f1.T @ c, g1.T @ c
    fcg = fc @ g2           # its trace is const, its transpose half of D
    return np.trace(fcg), gc @ g2, gc @ f2 + fcg.T, fc @ f2


def compute_generator(spec: SystemSpec) -> QuadraticForm:
    """The deterministic generator (R, D, L) with its scalar q0 as ``const``.

    The sum of six bilinear families, each one :func:`_bilinear` contraction
    of (f, g) rows with f b + g b^dag the linear operator of a row:

    * -i H and +i H~, H = x^T G x / 2: c = -iG/2 over the quadratures x_m,
      c = +iG/2 over their partner copies x~_m;
    * the dissipators, c = I over the channels c_k = (C x)_k, once for each
      of c~_k c_k, -(1/2) c_k^dag c_k and -(1/2) (c_k^dag c_k)~;
    * the measurement back-action, c = -I/2 over the rows of (W_l, W_r).

    R and L are symmetrized and the block pairing is checked.
    ParameterOutOfRange if the assembled generator is not finite (rates
    too large for float64).
    """
    n = spec.n_modes
    with np.errstate(all="ignore"):     # overflow is raised below
        u, swap = quadrature_expansion(n), half_swap(n)
        x, xt = (u, u.conj()), (u.conj() @ swap, u @ swap)
        cu, cv = spec.C @ u, spec.C @ u.conj()
        c, cd = (cu, cv), (cv.conj(), cu.conj())
        ct, cdt = (cu.conj() @ swap, cv.conj() @ swap), (cv @ swap, cu @ swap)
        nc = compute_noise_couplings(spec)
        s = (nc.W_l, nc.W_r)
        eye = np.eye(spec.n_channels)
        families = ((-0.5j * spec.G, x, x), (0.5j * spec.G, xt, xt), (eye, ct, c),
                    (-0.5 * eye, cd, c), (-0.5 * eye, cdt, ct),
                    (-0.5 * np.eye(2 * spec.n_channels), s, s))
        const, R, D, L = (sum(parts) for parts in zip(
            *(_bilinear(k, *f1, *f2) for k, f1, f2 in families)))
        finite = all(np.all(np.isfinite(a)) for a in (const, R, D, L))
    if not finite:
        raise ParameterOutOfRange("generator has non-finite entries: the "
                                  "spec's rates overflow float64")
    gen = QuadraticForm(n=n, const=complex(const), R=R, D=D, L=L).symmetrized()
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
