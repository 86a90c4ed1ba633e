"""Shared helpers for the test suite."""

import numpy as np
import pytest

from lintraj.parameterization import QuadraticGenerator
from lintraj.system import SystemSpec, validate_spec


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
    return QuadraticGenerator(n_modes=n, R=R, D=D, L=L,
                              scalar=complex(rng.normal() * scale))


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


def dense_evolution(rho0, factors):
    """Test oracle: the unnormalized evolved state from dense expm of each
    full D^2 x D^2 species lift (quadratic and linear parts together),
    times exp(delta' + sigma).  Single mode only; the engine never builds
    these exponentials."""
    from scipy.linalg import expm

    from lintraj.state_engine import evolution_superoperators

    v = rho0.rho.reshape(-1, order="F").astype(complex)
    for s in evolution_superoperators(factors, rho0.dim_per_mode):
        v = expm(s.toarray()) @ v
    v = v * np.exp(factors.log_scalar)
    return v.reshape(rho0.rho.shape, order="F")


def random_single_mode_factors(rng, t=0.5):
    """EvolutionFactors of a random single-mode system at time t, with random
    nonzero normal-ordered linear coefficients and sigma.

    The generator comes from a random physical system (``random_spec``), not
    from ``random_generator``: unphysical generators can make exp(S) span
    ~15 decades, where the dense-expm oracle itself drifts to ~1e-11 relative
    while the structured route stays near 1e-15 (both checked against a
    60-digit Taylor series of the sparse lifts)."""
    from dataclasses import replace

    from lintraj.lie_rep import propagator_blocks, rep_of_generator
    from lintraj.parameterization import compute_generator
    from lintraj.state_engine import EvolutionFactors

    spec = random_spec(1, int(rng.integers(1, 3)), rng)
    blocks = propagator_blocks(rep_of_generator(compute_generator(spec)), t)
    factors = EvolutionFactors.from_blocks(blocks)

    def cpx():
        return np.array([complex(rng.normal(), rng.normal())])

    return replace(factors, l_under=cpx(), r_under=cpx(),
                   sigma=complex(0.1 * rng.normal(), 0.1 * rng.normal()))
