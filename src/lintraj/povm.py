"""Gaussian effect operators for the compiled measurement.

An effect is parameterized by the quadratic pair (Lpp, Lpp_breve) extracted
from the propagator blocks and the record summary vector d.  Its
coherent-state diagonal is

    <alpha| W_d |alpha> = exp(log_norm + 2 Re(alpha^dag d) + F(alpha)),
    F(alpha) = 2 alpha^dag Lpp_breve alpha + 2 Re(alpha^dag Lpp alpha*),

which, viewed as a distribution over d at fixed alpha, is the record density
p(d | alpha).  Normalizing it in d fixes the scalar prefactor, so the
unobservable derivation constants never need to be computed.  F is represented
internally by the real symmetric form Phi on (Re alpha, Im alpha); Phi is
negative semidefinite for a valid effect, its null directions carry no
measurement information, and p(d | alpha) is Gaussian on the informative
subspace with mean -Phi (Re alpha, Im alpha) and covariance -Phi / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, MatrixExpFailure, SingularInformationMatrix
from .trajectory import MeasurementRecord

INFO_TOL = 1e-12


def _phi_matrix(lpp: np.ndarray, lpp_breve: np.ndarray) -> np.ndarray:
    """Real symmetric form Phi of F(alpha) over v = (Re alpha, Im alpha):
    F = v^T Phi v with Phi = P + P^T, P the real block form of
    alpha^dag Lpp_breve alpha + alpha^dag Lpp alpha*."""
    a, b = lpp_breve, lpp
    P = np.block([[(a + b).real, (b - a).imag],
                  [(a + b).imag, (a - b).real]])
    return P + P.T


@dataclass(frozen=True)
class GaussianEffect:
    """Effect-operator parameters plus the derived Gaussian data."""

    n_modes: int
    Lpp: np.ndarray
    Lpp_breve: np.ndarray
    d: np.ndarray
    alpha_mean: np.ndarray
    log_norm: float
    is_flat: bool
    phi: np.ndarray = field(repr=False)
    info_vectors: np.ndarray = field(repr=False)   # (2N, r) eigenvectors
    info_values: np.ndarray = field(repr=False)    # r negative eigenvalues

    def xi(self) -> np.ndarray:
        """d in stacked real coordinates (Re d; Im d)."""
        return np.concatenate([self.d.real, self.d.imag])

    def d_mean_for(self, alpha) -> np.ndarray:
        """Expected d for an initial coherent state alpha (complex N-vector)."""
        alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
        vec = np.concatenate([alpha.real, alpha.imag])
        xi = -self.phi @ vec
        return xi[:self.n_modes] + 1j * xi[self.n_modes:]

    def d_covariance(self) -> np.ndarray:
        """Covariance of (Re d; Im d); zero along uninformative directions."""
        return -self.phi / 2.0

    def alpha_covariance(self) -> np.ndarray:
        """Posterior covariance of (Re alpha; Im alpha) under a flat prior;
        finite part only (uninformative directions are returned as zero)."""
        U, w = self.info_vectors, self.info_values
        if U.shape[1] == 0:
            return np.zeros_like(self.phi)
        return U @ np.diag(-0.5 / w) @ U.T

    def quadrature_covariance(self) -> np.ndarray:
        """Q-function covariance over quadratures (q1, p1, ..., qN, pN);
        finite part only."""
        n = self.n_modes
        perm = np.zeros((2 * n, 2 * n))
        for i in range(n):
            perm[2 * i, i] = 1.0
            perm[2 * i + 1, n + i] = 1.0
        return 2.0 * perm @ self.alpha_covariance() @ perm.T


def effect_from_blocks(lpp_full: np.ndarray, d: np.ndarray) -> GaussianEffect:
    """Build the effect from the 2N x 2N quadratic-parameter matrix of
    :func:`lintraj.lie_rep.povm_blocks` and d.  MatrixExpFailure if its mean
    or log-normalization leaves the floats (a record too large for them)."""
    lpp_full = np.asarray(lpp_full, dtype=complex)
    n = lpp_full.shape[0] // 2
    lpp = lpp_full[:n, :n]
    lpp_breve = lpp_full[:n, n:]
    d = np.atleast_1d(np.asarray(d, dtype=complex))
    if d.shape != (n,):
        raise DimensionMismatch(f"d must have length {n}")
    phi = _phi_matrix(lpp, lpp_breve)
    w, U = np.linalg.eigh(phi)
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    if w.max(initial=0.0) > 1e-10 * scale:
        raise ValueError(f"effect quadratic form has positive directions: {w}")
    keep = w < -INFO_TOL * scale
    Uk, wk = U[:, keep], w[keep]
    xi = np.concatenate([d.real, d.imag])
    leftover = xi - Uk @ (Uk.T @ xi)
    if np.abs(leftover).max(initial=0.0) > 1e-8 * max(1.0, np.abs(xi).max()):
        raise SingularInformationMatrix(
            "d has support along directions with no measurement information")
    if keep.any():
        with np.errstate(all="ignore"):     # non-finite results raise below
            vec = Uk @ ((Uk.T @ xi) / (-wk))
            alpha_mean = vec[:n] + 1j * vec[n:]
            # p(d | alpha): Gaussian with inverse covariance -2/w on the range
            omega_xi = Uk @ ((Uk.T @ xi) * (-2.0 / wk))
            log_z = 0.5 * len(wk) * np.log(2 * np.pi) + 0.5 * np.log(-wk / 2).sum()
            log_norm = float(-0.5 * xi @ omega_xi - log_z)
        if not (np.all(np.isfinite(alpha_mean)) and np.isfinite(log_norm)):
            raise MatrixExpFailure(f"effect mean or log-normalization is not "
                                   f"finite (log_norm {log_norm})")
        is_flat = False
    else:
        alpha_mean = np.zeros(n, dtype=complex)
        log_norm = 0.0
        is_flat = True
    return GaussianEffect(n_modes=n, Lpp=lpp, Lpp_breve=lpp_breve, d=d,
                          alpha_mean=alpha_mean, log_norm=log_norm,
                          is_flat=is_flat, phi=phi, info_vectors=Uk,
                          info_values=wk)


def q_density(effect: GaussianEffect, alpha) -> float:
    """p(d | alpha) = <alpha| W_d |alpha>; normalized over d, not over alpha."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    vec = np.concatenate([alpha.real, alpha.imag])
    if effect.is_flat:
        return 1.0
    expo = (effect.log_norm + 2.0 * vec @ effect.xi() + vec @ effect.phi @ vec)
    return float(np.exp(expo))


@dataclass(frozen=True)
class GaussianPosterior:
    """Retrodicted Gaussian over the initial coherent amplitude."""

    n_modes: int
    mean: np.ndarray            # complex N-vector
    information: np.ndarray     # (2N, 2N) over (Re alpha; Im alpha)
    covariance: np.ndarray      # inf along flat directions


def retrodict_posterior(effect: GaussianEffect, prior_mean=None,
                        prior_cov=None) -> GaussianPosterior:
    """Gaussian product of p(alpha | d) with a Gaussian prior over alpha.

    A flat prior (the default) is represented exactly, not by a large
    covariance.  prior_mean is a complex N-vector; prior_cov a (2N, 2N) real
    covariance over (Re alpha; Im alpha).
    """
    n = effect.n_modes
    info = -2.0 * effect.phi
    eta = 2.0 * effect.xi()
    if prior_cov is not None:
        prior_info = np.linalg.inv(np.asarray(prior_cov, dtype=float))
        info = info + prior_info
        if prior_mean is not None:
            pm = np.atleast_1d(np.asarray(prior_mean, dtype=complex))
            eta = eta + prior_info @ np.concatenate([pm.real, pm.imag])
    w, U = np.linalg.eigh((info + info.T) / 2)
    keep = w > INFO_TOL * max(1.0, float(np.abs(w).max(initial=0.0)))
    cov = np.full((2 * n, 2 * n), np.inf)
    mean_vec = np.zeros(2 * n)
    if keep.any():
        Uk, wk = U[:, keep], w[keep]
        cov_fin = Uk @ np.diag(1.0 / wk) @ Uk.T
        mean_vec = cov_fin @ eta
        if keep.all():
            cov = cov_fin
        else:
            finite_rows = (np.abs(U[:, ~keep]) < 1e-8).all(axis=1)
            cov[np.ix_(finite_rows, finite_rows)] = \
                cov_fin[np.ix_(finite_rows, finite_rows)]
    return GaussianPosterior(n_modes=n, mean=mean_vec[:n] + 1j * mean_vec[n:],
                             information=info, covariance=cov)


def record_integral(record: MeasurementRecord, kernel, component: int) -> float:
    """Ito sum over one current component with the kernel evaluated at the
    slice times j dt (the pipeline's convention)."""
    taus = record.dt * np.arange(1, record.steps + 1)
    return float(np.sum(kernel(taus) * record.y[:, component]) * record.dt)


def homodyne_closed_form(gamma: float, K: float, eta: float, t: float,
                         record: MeasurementRecord | None = None):
    """Closed-form effect parameters for thermal-bath x homodyne.

    Returns (Lpp, Lpp_breve, d); d is None without a record.
    """
    decay = 1.0 - np.exp(-gamma * t)
    denom = 2.0 + 4.0 * K * (1.0 - eta * decay)
    lpp = -decay * eta / denom
    d = None
    if record is not None:
        pref = np.sqrt(gamma * eta * (1 + 2 * K)) / (1 + 2 * K * (1 - eta * decay))
        d = pref * record_integral(record, lambda tau: np.exp(-gamma * tau / 2), 0)
    return lpp, lpp, d


@dataclass(frozen=True)
class OptomechClosedForm:
    Lpp: float
    Lpp_breve: float
    sigma_x2: float
    sigma_p2: float
    Gamma_plus: float
    Gamma_minus: float
    d: complex | None = None


def optomech_closed_form(mu_eff: float, gamma: float, K: float, chi: float,
                         t: float, record: MeasurementRecord | None = None
                         ) -> OptomechClosedForm:
    """Closed-form effect parameters and retrodictive variances for the
    squeezed position measurement.

    The rates Gamma_pm = sqrt((gamma +- chi)^2 + 8 mu' gamma (1 + 2K)
    + 16 mu'^2) govern the two quadratures; the d expression uses the
    long-time kernels and is only meaningful for Gamma_pm t >> 1.
    """
    g_p = np.sqrt((gamma + chi) ** 2 + 8 * mu_eff * gamma * (1 + 2 * K)
                  + 16 * mu_eff ** 2)
    g_m = np.sqrt((gamma - chi) ** 2 + 8 * mu_eff * gamma * (1 + 2 * K)
                  + 16 * mu_eff ** 2)
    den_p = gamma + 4 * mu_eff + chi + g_p / np.tanh(g_p * t / 2)
    den_m = gamma + 4 * mu_eff - chi + g_m / np.tanh(g_m * t / 2)
    lpp = 2 * mu_eff * (1 / den_m - 1 / den_p)
    lpp_breve = -2 * mu_eff * (1 / den_m + 1 / den_p)
    sigma_x2 = 0.5 + (gamma + chi + g_p / np.tanh(g_p * t / 2)) / (8 * mu_eff)
    sigma_p2 = 0.5 + (gamma - chi + g_m / np.tanh(g_m * t / 2)) / (8 * mu_eff)
    d = None
    if record is not None:
        # Exponential response kernels on the two quadrature currents.  The
        # prefactors carry 1/sqrt(2) relative to the complex-current form
        # because the record stores the real pair (y_x, y_p) of unit-variance
        # currents, and d pairs with the creation operator of the pipeline's
        # effect convention (+i on the p kernel).
        cx = np.sqrt(mu_eff / 2) * (gamma - g_p + 4 * mu_eff - chi
                                    + 4 * gamma * K) / (2 * gamma * K - chi)
        cp = np.sqrt(mu_eff / 2) * (gamma - g_m + 4 * mu_eff + chi
                                    + 4 * gamma * K) / (2 * gamma * K + chi)
        d = (cx * record_integral(record, lambda tau: np.exp(-g_p * tau / 2), 0)
             + 1j * cp * record_integral(record,
                                         lambda tau: np.exp(-g_m * tau / 2), 1))
    return OptomechClosedForm(Lpp=lpp, Lpp_breve=lpp_breve, sigma_x2=sigma_x2,
                              sigma_p2=sigma_p2, Gamma_plus=g_p, Gamma_minus=g_m,
                              d=d)


def effect_to_json(effect: GaussianEffect) -> dict:
    return {
        "n_modes": effect.n_modes,
        "Lpp_re": effect.Lpp.real.ravel().tolist(),
        "Lpp_im": effect.Lpp.imag.ravel().tolist(),
        "Lpp_breve_re": effect.Lpp_breve.real.ravel().tolist(),
        "Lpp_breve_im": effect.Lpp_breve.imag.ravel().tolist(),
        "d_re": effect.d.real.tolist(),
        "d_im": effect.d.imag.tolist(),
        "alpha_mean_re": effect.alpha_mean.real.tolist(),
        "alpha_mean_im": effect.alpha_mean.imag.tolist(),
        "log_norm": effect.log_norm,
        "is_flat": effect.is_flat,
    }
