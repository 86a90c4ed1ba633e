import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lintraj import _linalg, lie_rep
from lintraj.errors import LogBranchFailure, SingularBlock
from lintraj.lie_rep import (
    PropagatorBlocks,
    RepMatrix,
    disentangle_quadratic,
    flip,
    normal_order_linear,
    povm_blocks,
    propagator_blocks,
    reordering_scalar,
    rep_of_generator,
)
from lintraj.parameterization import (
    QuadraticForm,
    compute_generator,
)
from lintraj.system import builtin_homodyne_thermal, builtin_optomech_squeezing
from lintraj.trajectory import BlockTable

from conftest import (
    assemble,
    block_table_residual,
    commutator,
    d_prime,
    generator_blocks,
    homodyne_golden_blocks,
    random_generator,
    random_spec,
    reconstruct_from_factors,
    reorder_linear_increment,
    rep_linear_factor,
    table_grid,
)


def test_rep_of_zero_generator_is_zero():
    gen = QuadraticForm(n=1)
    assert np.abs(rep_of_generator(gen).matrix).max() == 0.0


def test_rep_single_creation_squared_has_two_entries():
    R = np.zeros((2, 2), dtype=complex)
    R[0, 0] = 0.7
    gen = QuadraticForm(n=1, R=R)
    T = rep_of_generator(gen).matrix
    nz = np.argwhere(np.abs(T) > 0)
    assert len(nz) == 1 and tuple(nz[0]) == (1, 4) and abs(T[1, 4] - 1.4) < 1e-15


def test_rep_inner_block_layout_homodyne():
    gen = compute_generator(builtin_homodyne_thermal(1.1, 0.8, 0.5))
    b = generator_blocks(gen)
    T = rep_of_generator(gen).matrix
    row1 = [b["D"][0, 0], b["D_breve"][0, 0], 2 * b["R_breve"][0, 0], 2 * b["R"][0, 0]]
    row3 = [-2 * b["L_breve"][0, 0], -2 * np.conj(b["L"][0, 0]),
            -np.conj(b["D"][0, 0]), -b["D_breve"][0, 0]]
    assert np.allclose(T[1, 1:5], row1, atol=1e-14)
    assert np.allclose(T[3, 1:5], row3, atol=1e-14)


def test_commutator_faithfulness_is_exact(rng):
    # integer-valued generators: the bracket images agree with zero residual
    for _ in range(60):
        n = int(rng.integers(1, 4))
        m = 2 * n

        def arr(*shape):
            return (rng.integers(-3, 4, size=shape)
                    + 1j * rng.integers(-3, 4, size=shape)).astype(complex)

        a = QuadraticForm(n=n, const=complex(rng.integers(-3, 4)), lin_l=arr(m),
                          lin_r=arr(m), R=arr(m, m), D=arr(m, m),
                          L=arr(m, m)).symmetrized()
        b = QuadraticForm(n=n, const=complex(rng.integers(-3, 4)), lin_l=arr(m),
                          lin_r=arr(m), R=arr(m, m), D=arr(m, m),
                          L=arr(m, m)).symmetrized()
        lhs = rep_of_generator(commutator(a, b)).matrix
        ra, rb = rep_of_generator(a).matrix, rep_of_generator(b).matrix
        assert np.abs(lhs - (ra @ rb - rb @ ra)).max() == 0.0


def test_propagator_t0_is_identity():
    gen = compute_generator(builtin_homodyne_thermal(1.0, 0.5, 0.5))
    bl = propagator_blocks(rep_of_generator(gen), 0.0)
    assert np.allclose(bl.N11, np.eye(2))
    assert np.allclose(bl.Nm1m1, np.eye(2))
    assert np.abs(bl.N1m1).max() == 0.0
    assert np.abs(bl.Nm11).max() == 0.0
    assert bl.c == 0.0


def test_homodyne_blocks_at_zero_temperature():
    gamma, eta, t = 1.0, 0.64, 0.8
    gen = compute_generator(builtin_homodyne_thermal(gamma, 0.0, eta))
    bl = propagator_blocks(rep_of_generator(gen), t)
    sh = np.sinh(gamma * t / 2)
    assert abs(bl.N11[0, 0] - np.exp(-gamma * t / 2)) < 1e-12
    assert abs(bl.Nm1m1[0, 0] - np.exp(gamma * t / 2)) < 1e-12
    assert abs(bl.Nm11[0, 1] - 2 * eta * sh) < 1e-12
    assert abs(bl.Nm11[0, 0] - 2 * (eta - 1) * sh) < 1e-12
    for val in (bl.N11[0, 1], bl.N1m1[0, 0], bl.N1m1[0, 1], bl.Nm1m1[0, 1]):
        assert abs(val) < 1e-13


def test_homodyne_blocks_general_golden_forms(rng):
    for _ in range(30):
        gamma, K, eta = rng.uniform(0.2, 2), rng.uniform(0, 3), rng.uniform(0, 1)
        t = rng.uniform(0.05, 2.0)
        gen = compute_generator(builtin_homodyne_thermal(gamma, K, eta))
        bl = propagator_blocks(rep_of_generator(gen), t)
        q, s, u, v, w, x, y, z = homodyne_golden_blocks(gamma, K, eta, t)
        got = np.array([bl.N11[0, 0], bl.N11[0, 1], bl.N1m1[0, 0], bl.N1m1[0, 1],
                        bl.Nm11[0, 0], bl.Nm11[0, 1], bl.Nm1m1[0, 0],
                        bl.Nm1m1[0, 1]])
        assert np.abs(got - np.array([q, s, u, v, w, x, y, z])).max() < 1e-10


def test_blocks_conjugate_pairing(rng):
    gen = random_generator(1, rng, 0.7)
    bl = propagator_blocks(rep_of_generator(gen), 0.9)
    for blk in (bl.N11, bl.N1m1, bl.Nm11, bl.Nm1m1):
        assert abs(blk[1, 1] - blk[0, 0].conjugate()) < 1e-12
        assert abs(blk[1, 0] - blk[0, 1].conjugate()) < 1e-12


def test_semigroup_property(rng):
    for n in (1, 2):
        gen = random_generator(n, rng, 0.5)
        rep = rep_of_generator(gen)
        t1, t2 = 0.37, 0.81
        a = assemble(propagator_blocks(rep, t1))
        b = assemble(propagator_blocks(rep, t2))
        c = assemble(propagator_blocks(rep, t1 + t2))
        assert np.abs(a @ b - c).max() < 1e-9


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2), t=st.floats(0.0, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_propagator_blocks_round_trip(n, t, seed):
    # the blocks hold every entry of exp(rep t) that is not fixed by its
    # zero first row and last column, so both directions are bitwise
    rep = rep_of_generator(compute_generator(
        random_spec(n, 2, np.random.default_rng(seed))))
    blocks = propagator_blocks(rep, t)
    T = assemble(blocks)
    assert np.array_equal(T, _linalg.expm(rep.matrix * t))
    again = PropagatorBlocks.from_matrix(n, t, T)
    for field in dataclasses.fields(PropagatorBlocks):
        assert np.array_equal(getattr(again, field.name),
                              getattr(blocks, field.name)), field.name


def test_propagator_grid_matches_direct(rng):
    gen = random_generator(2, rng, 0.4)
    rep = rep_of_generator(gen)
    assert block_table_residual(BlockTable(rep, 0.05, 12), rep) < 1e-10


@pytest.mark.parametrize("steps", [1, 7, 8, 9, 29, 2000])
@pytest.mark.parametrize("system", ["homodyne", "optomech", "random N=2"])
def test_block_table_factors_are_their_own_exponentials(system, steps):
    spec = {"homodyne": lambda: builtin_homodyne_thermal(1.0, 0.3, 0.7),
            "optomech": lambda: builtin_optomech_squeezing(1.0, 0.8, 0.5,
                                                           0.2, 0.3),
            "random N=2": lambda: random_spec(2, 2, np.random.default_rng(5)),
            }[system]()
    rep = rep_of_generator(compute_generator(spec))
    dt = 0.01
    table = BlockTable(rep, dt, steps)
    c = int(np.ceil(np.sqrt(steps)))
    assert table.powers.shape[0] == c
    assert table.bases.shape[0] == -(-steps // c)

    def inner(j):
        return _linalg.expm(rep.matrix * (dt * j))[1:-1, 1:-1]

    # each factor is the library's exponential at its own time, bitwise
    for i, power in enumerate(table.powers):
        assert np.array_equal(power, inner(i + 1))
    for q, base in enumerate(table.bases):
        assert np.array_equal(base, inner(q * c))
    assert np.array_equal(table.final, _linalg.expm(rep.matrix * (dt * steps)))
    # relative to the largest entry: at 2000 steps (t = 20) the unstable
    # directions have grown to ~1e4 (homodyne) and ~1e22 (random N=2)
    scale = max(1.0, np.abs(table.final).max())
    assert block_table_residual(table, rep) <= 1e-12 * scale


def test_blocked_powers_match_direct_expm_on_long_grid():
    # every 1000th step of a 5e4-step grid, against scipy's expm(rep j dt).
    # A product of j rounded one-step propagators sat ~4e-12 off here; a
    # product of two exponentials sits within a few ulps (<= 6e-15 measured)
    for spec in (builtin_homodyne_thermal(1.0, 0.3, 0.7),
                 builtin_optomech_squeezing(1.0, 0.8, 0.5, 0.2, 0.3)):
        rep = rep_of_generator(compute_generator(spec))
        dt, steps = 1e-4, 50_000
        table = BlockTable(rep, dt, steps)
        got = table_grid(table)[999::1000]
        want = np.array([expm(rep.matrix * (j + 1) * dt)[1:-1, 1:-1]
                         for j in range(999, steps, 1000)])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # the final propagator, corner entry included
        want = expm(rep.matrix * steps * dt)
        assert np.abs(table.final - want).max() <= 1e-13 * np.abs(want).max()


def test_propagator_grid_defective_fallback():
    # a non-diagonalizable image exercises the repeated-multiplication path
    T = np.zeros((6, 6), dtype=complex)
    T[1, 2] = 1.0       # Jordan-type coupling at a degenerate eigenvalue
    T[3, 4] = 1.0
    T[1, 1] = T[2, 2] = T[3, 3] = T[4, 4] = -0.3
    rep = RepMatrix(n_modes=1, matrix=T)
    assert block_table_residual(BlockTable(rep, 0.1, 9), rep) < 1e-11


def test_disentangle_t0_is_trivial():
    gen = compute_generator(builtin_homodyne_thermal(1.0, 0.3, 0.8))
    dis = disentangle_quadratic(propagator_blocks(rep_of_generator(gen), 0.0))
    assert np.abs(dis.D_under).max() == 0.0
    assert np.abs(dis.R_prime).max() == 0.0
    assert np.abs(dis.L_prime).max() == 0.0
    assert abs(dis.delta_prime) == 0.0


def test_disentangle_homodyne_zero_temperature_closed_forms():
    gamma, eta, t = 1.0, 0.7, 0.9
    gen = compute_generator(builtin_homodyne_thermal(gamma, 0.0, eta))
    dis = disentangle_quadratic(propagator_blocks(rep_of_generator(gen), t))
    decay = 1 - np.exp(-gamma * t)
    assert abs(dis.D_under[0, 0] + gamma * t / 2) < 1e-12
    assert abs(dis.D_under[0, 1]) < 1e-12
    assert np.abs(dis.R_prime).max() < 1e-12
    assert abs(dis.L_prime[0, 0] + eta * decay / 2) < 1e-12
    assert abs(dis.L_prime[0, 1] - (1 - eta) * decay / 2) < 1e-12
    # the normally ordered number parameter is the exponential minus identity
    assert np.abs(d_prime(dis) - (expm(dis.D_under) - np.eye(2))).max() < 1e-14
    assert abs(d_prime(dis)[0, 0] - (np.exp(-gamma * t / 2) - 1)) < 1e-12


def test_disentangle_reconstruct_random(rng):
    done = 0
    while done < 40:
        n = int(rng.integers(1, 3))
        gen = random_generator(n, rng, 0.5)
        rep = rep_of_generator(gen)
        if np.abs(np.linalg.eigvals(rep.matrix)).max() > 5:
            continue
        bl = propagator_blocks(rep, rng.uniform(0.0, 2.0))
        try:
            dis = disentangle_quadratic(bl)
        except LogBranchFailure:
            continue
        done += 1
        assert np.abs(reconstruct_from_factors(dis) - assemble(bl)).max() < 1e-9


def test_singular_block_raises():
    # force Nm1m1 numerically singular
    m = np.eye(6, dtype=complex)
    m[4, 4] = 1e-300
    bl = PropagatorBlocks.from_matrix(1, 1.0, m)
    with pytest.raises((SingularBlock, LogBranchFailure)):
        disentangle_quadratic(bl)


def test_singular_nm1m1_raises_on_every_call():
    m = np.eye(6, dtype=complex)
    m[4, 4] = 1e-300
    bl = PropagatorBlocks.from_matrix(1, 1.0, m)
    r = np.ones(2, dtype=complex)
    for _ in range(2):     # a failed inverse is not cached
        with pytest.raises(SingularBlock):
            normal_order_linear(bl, r, r)
        with pytest.raises(SingularBlock):
            reordering_scalar(bl, r)
    assert "Nm1m1_inv" not in vars(bl) and "L_prime" not in vars(bl)


def test_nm1m1_inverse_is_computed_once_per_blocks(rng):
    gen = compute_generator(builtin_optomech_squeezing(1.0, 1.0, 0.4, 0.2, 0.3))
    bl = propagator_blocks(rep_of_generator(gen), 0.8)
    with mock.patch.object(lie_rep, "_checked_inverse",
                           wraps=lie_rep._checked_inverse) as inverse:
        disentangle_quadratic(bl)
        for _ in range(100):
            r = rng.normal(size=2) + 1j * rng.normal(size=2)
            normal_order_linear(bl, r, r)
            reordering_scalar(bl, r)
    assert inverse.call_count == 1
    assert disentangle_quadratic(bl).L_prime is bl.L_prime


def test_reordering_scalar_matches_unsymmetrized_l_prime(rng):
    # only the symmetric part of L' enters r'^T L' r'; the gap is measured
    # against the size of the sum's terms, |r'|^T |L'| |r'|, since sigma
    # itself can cancel to far below them
    for n in (1, 2):
        bl = propagator_blocks(rep_of_generator(random_generator(n, rng, 0.6)),
                               0.9)
        J = flip(2 * n)
        L_unsym = -0.5 * J @ np.linalg.inv(bl.Nm1m1) @ bl.Nm11
        for _ in range(20):
            r = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
            want = r @ L_unsym @ r
            scale = np.abs(r) @ np.abs(L_unsym) @ np.abs(r)
            assert abs(reordering_scalar(bl, r) - want) <= 1e-15 * scale


def test_reorder_identity_at_t0(rng):
    gen = random_generator(1, rng)
    bl = propagator_blocks(rep_of_generator(gen), 0.0)
    dl = rng.normal(size=2) + 1j * rng.normal(size=2)
    dr = rng.normal(size=2) + 1j * rng.normal(size=2)
    dl_p, dr_p = reorder_linear_increment(bl, dl, dr)
    assert np.abs(dl_p - dl).max() < 1e-14
    assert np.abs(dr_p - dr).max() < 1e-14


def test_reorder_zero_stays_zero(rng):
    gen = random_generator(2, rng)
    bl = propagator_blocks(rep_of_generator(gen), 0.6)
    dl_p, dr_p = reorder_linear_increment(bl, np.zeros(4, complex),
                                          np.zeros(4, complex))
    assert np.abs(dl_p).max() == 0.0
    assert np.abs(dr_p).max() == 0.0


def test_reorder_homodyne_zero_temperature_kernel():
    gamma, eta, t = 1.0, 1.0, 0.7
    gen = compute_generator(builtin_homodyne_thermal(gamma, 0.0, eta))
    bl = propagator_blocks(rep_of_generator(gen), t)
    lam = 0.83
    dl = lam * np.ones(2, dtype=complex)
    dr = np.zeros(2, dtype=complex)
    dl_p, dr_p = reorder_linear_increment(bl, dl, dr)
    assert np.abs(dr_p).max() < 1e-13
    assert np.abs(dl_p - lam * np.exp(-gamma * t / 2)).max() < 1e-12


def test_reorder_representation_identity(rng):
    for n in (1, 2):
        gen = random_generator(n, rng, 0.6)
        bl = propagator_blocks(rep_of_generator(gen), 0.9)
        m = 2 * n
        dl = rng.normal(size=m) + 1j * rng.normal(size=m)
        dr = rng.normal(size=m) + 1j * rng.normal(size=m)
        dl_p, dr_p = reorder_linear_increment(bl, dl, dr)
        lhs = rep_linear_factor(n, dl, dr) @ assemble(bl)
        rhs = assemble(bl) @ rep_linear_factor(n, dl_p, dr_p)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_reorder_redundant_equations_agree(rng):
    # the inverse-route equations determine the same primed increments
    n = 2
    gen = random_generator(n, rng, 0.6)
    bl = propagator_blocks(rep_of_generator(gen), 0.8)
    m = 2 * n
    J = flip(m)
    dl = rng.normal(size=m) + 1j * rng.normal(size=m)
    dr = rng.normal(size=m) + 1j * rng.normal(size=m)
    dl_p, dr_p = reorder_linear_increment(bl, dl, dr)
    B = np.block([[bl.N11, bl.N1m1], [bl.Nm11, bl.Nm1m1]])
    col = np.linalg.solve(B, np.concatenate([dr, -(J @ dl)]))
    assert np.abs(col[:m] - dr_p).max() < 1e-9
    assert np.abs(col[m:] + J @ dl_p).max() < 1e-9


def test_normal_order_identity_blocks(rng):
    gen = random_generator(1, rng)
    bl = propagator_blocks(rep_of_generator(gen), 0.0)
    lp = rng.normal(size=2) + 1j * rng.normal(size=2)
    rp = rng.normal(size=2) + 1j * rng.normal(size=2)
    lu, ru = normal_order_linear(bl, lp, rp)
    assert np.abs(lu - lp).max() < 1e-14
    assert np.abs(ru - rp).max() < 1e-14


def test_normal_order_r_zero_reduces(rng):
    gen = random_generator(1, rng, 0.7)
    bl = propagator_blocks(rep_of_generator(gen), 0.8)
    lp = rng.normal(size=2) + 1j * rng.normal(size=2)
    lu, ru = normal_order_linear(bl, lp, np.zeros(2, complex))
    assert np.abs(lu - lp).max() == 0.0
    assert np.abs(ru).max() == 0.0
    assert abs(reordering_scalar(bl, np.zeros(2, complex))) == 0.0


def test_normal_order_representation_identity(rng):
    for n in (1, 2):
        gen = random_generator(n, rng, 0.6)
        bl = propagator_blocks(rep_of_generator(gen), 0.9)
        m = 2 * n
        lp = rng.normal(size=m) + 1j * rng.normal(size=m)
        rp = rng.normal(size=m) + 1j * rng.normal(size=m)
        lu, ru = normal_order_linear(bl, lp, rp)
        sigma = reordering_scalar(bl, rp)
        dim = 4 * n + 2
        scal = np.eye(dim, dtype=complex)
        scal[dim - 1, 0] = 2 * sigma
        lhs = rep_linear_factor(n, None, ru) @ assemble(bl) \
            @ rep_linear_factor(n, lu, None)
        rhs = scal @ assemble(bl) @ rep_linear_factor(n, None, rp) \
            @ rep_linear_factor(n, lp, None)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_povm_blocks_trivial_at_t0():
    gen = compute_generator(builtin_homodyne_thermal(1.0, 0.5, 0.5))
    bl = propagator_blocks(rep_of_generator(gen), 0.0)
    assert np.abs(povm_blocks(bl)).max() < 1e-14


@pytest.mark.parametrize("gamma,K,eta,t", [(1.0, 0.0, 1.0, 0.7),
                                           (1.3, 0.8, 0.55, 1.1),
                                           (0.7, 2.3, 0.9, 2.0)])
def test_povm_blocks_homodyne_closed_form(gamma, K, eta, t):
    gen = compute_generator(builtin_homodyne_thermal(gamma, K, eta))
    lpp = povm_blocks(propagator_blocks(rep_of_generator(gen), t))
    decay = 1 - np.exp(-gamma * t)
    want = -decay * eta / (2 + 4 * K * (1 - eta * decay))
    assert abs(lpp[0, 0] - want) < 1e-12
    assert abs(lpp[0, 1] - want) < 1e-12


def test_povm_blocks_optomech_rates():
    mu, eta, gamma, K_th, chi, t = 1.0, 1.0, 0.1, 0.0, 0.5, 30.0
    spec = builtin_optomech_squeezing(mu, eta, gamma, K_th, chi)
    lpp = povm_blocks(propagator_blocks(rep_of_generator(compute_generator(spec)), t))
    mu_eff = mu * eta
    K = K_th
    g_p = np.sqrt((gamma + chi) ** 2 + 8 * mu_eff * gamma * (1 + 2 * K) + 16 * mu_eff ** 2)
    g_m = np.sqrt((gamma - chi) ** 2 + 8 * mu_eff * gamma * (1 + 2 * K) + 16 * mu_eff ** 2)
    den_p = gamma + 4 * mu_eff + chi + g_p / np.tanh(g_p * t / 2)
    den_m = gamma + 4 * mu_eff - chi + g_m / np.tanh(g_m * t / 2)
    assert abs(lpp[0, 0] - 2 * mu_eff * (1 / den_m - 1 / den_p)) < 1e-12
    assert abs(lpp[0, 1] + 2 * mu_eff * (1 / den_m + 1 / den_p)) < 1e-12


def test_inner_eigenvalue_closed_form(rng):
    gen = random_generator(1, rng, real=True)
    ev = np.sort_complex(np.linalg.eigvals(rep_of_generator(gen).matrix[1:5, 1:5]))
    D, Db = gen.D[0, 0], gen.D[0, 1]
    L, Lb = gen.L[0, 0], gen.L[0, 1]
    R, Rb = gen.R[0, 0], gen.R[0, 1]
    lam_p = np.sqrt(complex((D + Db) ** 2 - 4 * (L + Lb) * (R + Rb)))
    lam_m = np.sqrt(complex((D - Db) ** 2 - 4 * (L - Lb) * (R - Rb)))
    want = np.sort_complex(np.array([lam_p, -lam_p, lam_m, -lam_m]))
    assert np.abs(ev - want).max() < 1e-10
