"""The numpy-only matrix exponential and logarithm against scipy and against
50-digit mpmath values, on the matrices the pipeline exponentiates."""

import numpy as np
import pytest
import scipy.linalg
from conftest import random_single_mode_factors, random_spec
from mpmath import mp

from lintraj._linalg import expm, logm
from lintraj.adjoint_kalman import _riccati_flow_matrix, kalman_matrices
from lintraj.errors import LogBranchFailure
from lintraj.lie_rep import _principal_log, propagator_blocks, rep_of_generator
from lintraj.parameterization import compute_generator
from lintraj.state_engine import _number_generators, fock_operators
from lintraj.system import builtin_homodyne_thermal, builtin_optomech_squeezing

BUILTINS = (builtin_homodyne_thermal(1.0, 0.3, 0.7),
            builtin_homodyne_thermal(1.0, 0.2, 0.8),
            builtin_optomech_squeezing(1.0, 1.0, 0.4, 0.2, 0.3))


def _specs():
    rng = np.random.default_rng(19)
    return BUILTINS + tuple(random_spec(n, 2, rng) for n in (1, 1, 2, 2))


def _rep_images():
    return [rep_of_generator(compute_generator(spec)).matrix * t
            for spec in _specs() for t in (1e-3, 0.5, 3.0)]


def _riccati_steps():
    return [_riccati_flow_matrix(kalman_matrices(spec)) * dt
            for spec in _specs() for dt in (1e-3, 1e-2, 1.0)]


def _number_sectors():
    # the engine's number-factor blocks at D = 20, two m + n sectors each
    f, *_ = random_single_mode_factors(np.random.default_rng(3))
    return [_number_generators(f.D_under[0, 0], f.D_breve[0, 0], 20)]


def _nilpotent_factors():
    # L' a^2 + l a and R' a^dag^2 + r a^dag at D = 20
    rng = np.random.default_rng(4)
    a, ad, _ = fock_operators(20)
    out = []
    for _ in range(3):
        f, l_u, r_u, _ = random_single_mode_factors(rng)
        out += [f.L_prime[0, 0] * (a @ a) + l_u[0] * a,
                f.R_prime[0, 0] * (ad @ ad) + r_u[0] * ad]
    return out


def _jordan_blocks(eigenvalues=(0.5, 2.0, 50.0, -0.3, 1j, -1 + 0.5j, 1e-3)):
    return [np.array([[lam, 1.0], [0.0, lam]], dtype=complex)
            for lam in eigenvalues]


def _gap(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


def _mp_array(M) -> np.ndarray:
    return np.array(M.tolist(), dtype=complex)


def _mp_expm(A) -> np.ndarray:
    with mp.workdps(50):
        return _mp_array(mp.expm(mp.matrix(A.tolist())))


def _mp_logm(A) -> np.ndarray:
    """50-digit principal logarithm: V log(Lambda) V^-1 from the 50-digit
    eigendecomposition, or, for the Jordan block [[l, 1], [0, l]], the
    closed form [[log l, 1/l], [0, log l]]."""
    with mp.workdps(50):
        if A.shape == (2, 2) and A[1, 0] == 0 and A[0, 0] == A[1, 1]:
            lam = mp.mpc(A[0, 0])
            return _mp_array(mp.matrix([[mp.log(lam), A[0, 1] / lam],
                                        [0, mp.log(lam)]]))
        E, V = mp.eig(mp.matrix(A.tolist()))
        return _mp_array(V * mp.diag([mp.log(e) for e in E]) * mp.inverse(V))


EXPM_INPUTS = {
    "rep images": _rep_images,
    "Riccati steps": _riccati_steps,
    "number sectors": _number_sectors,
    "nilpotent factors": _nilpotent_factors,
    "Jordan blocks": _jordan_blocks,
}


@pytest.mark.parametrize("family", EXPM_INPUTS)
def test_expm_is_as_accurate_as_scipy(family):
    # errors against 50-digit values, every third block of a sector stack.
    # Exponentials of the large-norm sector blocks are good to ~1e-14 by
    # either routine, which then differ by up to 1.3e-13 and take turns
    # being closer, so a family's typical and worst errors are compared
    # with scipy's rather than each matrix's.  scipy takes triangular input
    # exactly, where a Jordan block [[50, 1], [0, 50]] squares four times
    # here and lands 6e-14 off
    ours, theirs = [], []
    for A in EXPM_INPUTS[family]():
        for M in (A[1::3] if A.ndim == 3 else [A]):
            want = _mp_expm(M)
            ours.append(_gap(expm(M), want))
            theirs.append(_gap(scipy.linalg.expm(M), want))
    assert max(ours) <= 1e-13, family
    assert np.median(ours) <= 1.5 * np.median(theirs) + 1e-15, family
    if family != "Jordan blocks":
        assert max(ours) <= 2 * max(theirs) + 1e-15, family


def test_expm_of_zero_is_the_identity_and_nan_stays_local():
    A = np.zeros((3, 4, 4), dtype=complex)
    A[1, 0, 0] = np.nan
    got = expm(A)
    assert np.array_equal(got[[0, 2]], np.broadcast_to(np.eye(4), (2, 4, 4)))
    assert np.isnan(got[1]).all()
    assert expm(np.zeros((2, 2))).dtype == np.float64


def test_batched_calls_equal_per_matrix_calls():
    rng = np.random.default_rng(8)
    # norms from 1e-3 to ~50: each matrix squares a different number of times
    scales = np.geomspace(1e-3, 30.0, 9)
    A = ((rng.normal(size=(9, 5, 5)) + 1j * rng.normal(size=(9, 5, 5)))
         * scales[:, None, None]).reshape(3, 3, 5, 5)
    got = expm(A)
    for i in np.ndindex(3, 3):
        assert np.array_equal(got[i], expm(A[i]))
    # logarithms of propagator blocks that take 0 to 5 square roots
    B = np.array([propagator_blocks(rep_of_generator(compute_generator(spec)),
                                    t).Nm1m1
                  for spec in BUILTINS for t in (0.01, 1.0, 8.0)])
    got = logm(B)
    for i in range(len(B)):
        assert np.array_equal(got[i], logm(B[i]))


def _nm1m1_blocks(specs, times):
    return [propagator_blocks(rep_of_generator(compute_generator(spec)),
                              t).Nm1m1 for spec in specs for t in times]


@pytest.mark.parametrize("A", _nm1m1_blocks(BUILTINS, (0.01, 0.3, 1.0, 3.0,
                                                       10.0)))
def test_logm_of_builtin_blocks(A):
    want = _mp_logm(A)
    assert _gap(logm(A), want) <= _gap(scipy.linalg.logm(A), want) + 1e-15


def test_logm_of_random_blocks_and_jordan_blocks():
    # every Nm1m1 that disentangle_quadratic takes the logarithm of: off the
    # branch cut, and inverted there at cond <= 1e12.  Inverse scaling and
    # squaring on the whole matrix is up to ~1.5x further from the 50-digit
    # value than scipy's Schur method on strongly non-normal blocks, and a
    # few ulps off on Jordan blocks, which scipy takes exactly
    rng = np.random.default_rng(6)
    blocks = []
    for A in _nm1m1_blocks([random_spec(1, 2, rng) for _ in range(16)],
                           (0.2, 1.0, 3.0)):
        try:
            _principal_log(A, "Nm1m1")
        except LogBranchFailure:
            continue
        if np.linalg.cond(A) <= 1e12:
            blocks.append(A)
    assert len(blocks) >= 40
    for A in blocks:
        want = _mp_logm(A)
        assert _gap(logm(A), want) <= 2 * _gap(scipy.linalg.logm(A), want) + 1e-15
    for A in _jordan_blocks((0.5, 2.0, 50.0, 1j, -1 + 0.5j, 1e-3)):
        want = _mp_logm(A)
        assert _gap(logm(A), want) <= _gap(scipy.linalg.logm(A), want) + 2e-15


@pytest.mark.parametrize("w", [-1.0 + 0j, -1e-3 + 0j, 0j, -2.0 + 1e-15j])
def test_eigenvalue_on_the_negative_real_axis_has_no_principal_log(w):
    A = np.array([[w, 0.3], [0.0, 0.7]], dtype=complex)
    with pytest.raises(LogBranchFailure):
        _principal_log(A, "Nm1m1")
    if w != 0 and w.imag == 0:    # square roots of a real -|w| never settle
        with pytest.raises(LogBranchFailure):
            logm(A)
