import numpy as np
import pytest
from scipy.integrate import simpson

from lintraj.errors import SingularInformationMatrix
from lintraj.lie_rep import povm_blocks, propagator_blocks, rep_of_generator
from lintraj.parameterization import compute_generator, compute_noise_couplings
from lintraj.povm import (
    _phi_matrix,
    effect_from_blocks,
    homodyne_closed_form,
    optomech_closed_form,
    q_density,
    retrodict_posterior,
)
from lintraj.state_engine import coherent_state
from lintraj.system import builtin_homodyne_thermal, builtin_optomech_squeezing
from lintraj.trajectory import (
    BlockTable,
    accumulate_integrals,
    sample_ostensible_record,
    stochastic_d,
)

from conftest import effect_fock_operator


def homodyne_effect(gamma, K, eta, t, dt=1e-3, seed=0):
    spec = builtin_homodyne_thermal(gamma, K, eta)
    rep = rep_of_generator(compute_generator(spec))
    nc = compute_noise_couplings(spec)
    rec = sample_ostensible_record(spec, dt, t, seed=seed)
    table = BlockTable(rep, dt, rec.steps)
    ints = accumulate_integrals(table, nc, rec)
    lpp = povm_blocks(table.final_blocks())
    d = stochastic_d(ints, lpp)
    return rec, lpp, d, effect_from_blocks(lpp, d)


def test_flat_effect_at_t0():
    spec = builtin_homodyne_thermal(1.0, 0.5, 0.7)
    blocks = propagator_blocks(rep_of_generator(compute_generator(spec)), 0.0)
    effect = effect_from_blocks(povm_blocks(blocks), np.zeros(1, complex))
    assert effect.is_flat
    assert q_density(effect, 0.3 + 0.2j) == 1.0
    assert q_density(effect, -2.0) == 1.0


def test_flat_effect_with_data_raises():
    spec = builtin_homodyne_thermal(1.0, 0.5, 0.7)
    blocks = propagator_blocks(rep_of_generator(compute_generator(spec)), 0.0)
    with pytest.raises(SingularInformationMatrix):
        effect_from_blocks(povm_blocks(blocks), np.array([0.4 + 0j]))


def test_homodyne_closed_form_matches_pipeline(rng):
    for _ in range(200):
        gamma = rng.uniform(0.3, 2.0)
        K = rng.uniform(0.0, 2.5)
        eta = rng.uniform(0.05, 1.0)
        t = rng.uniform(0.1, 2.0)
        rec, lpp, d, _ = homodyne_effect(gamma, K, eta, t,
                                         seed=int(rng.integers(1 << 30)))
        lpp_cf, lb_cf, d_cf = homodyne_closed_form(gamma, K, eta, rec.t_final,
                                                   rec)
        assert abs(lpp[0, 0] - lpp_cf) < 1e-10
        assert abs(lpp[0, 1] - lb_cf) < 1e-10
        assert abs(d[0] - d_cf) < 1e-10


def test_homodyne_closed_form_spot_values():
    # unit efficiency, zero temperature, gamma t = ln 2
    lpp, lb, _ = homodyne_closed_form(1.0, 0.0, 1.0, np.log(2.0))
    assert abs(lpp + 0.25) < 1e-14
    assert abs(lb + 0.25) < 1e-14
    # no detection: flat parameters
    lpp0, lb0, _ = homodyne_closed_form(1.3, 0.8, 0.0, 0.9)
    assert lpp0 == 0.0 and lb0 == 0.0


def test_effect_mean_is_density_maximum():
    _, _, _, effect = homodyne_effect(1.0, 0.4, 0.8, 0.9, seed=21)
    am = effect.alpha_mean[0]
    peak = q_density(effect, am)
    for delta in (0.05, -0.07, 0.2):
        assert q_density(effect, am + delta) < peak
    # p-direction is flat for homodyne
    assert abs(q_density(effect, am + 0.3j) - peak) < 1e-12


def test_alpha_variance_from_second_moment_integral():
    _, lpp, d, effect = homodyne_effect(1.0, 0.4, 0.8, 0.9, seed=21)
    am = effect.alpha_mean[0].real
    grid = np.linspace(am - 6, am + 6, 1201)
    dens = np.array([q_density(effect, a) for a in grid])
    dens /= simpson(dens, x=grid)
    var = simpson(dens * (grid - am) ** 2, x=grid)
    want = effect.alpha_covariance()[0, 0]
    assert abs(var - want) < 1e-6
    # closed form: -1/(4 (Lpp_breve + Re Lpp)) for one informative quadrature
    lb, lr = lpp[0, 1].real, lpp[0, 0].real
    assert abs(want + 1.0 / (4 * (lb + lr))) < 1e-12


def test_q_density_against_fock_realization():
    _, _, _, effect = homodyne_effect(1.0, 0.4, 0.75, 0.9, seed=21)
    W = effect_fock_operator(effect, 40)
    assert np.abs(W - W.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(W).min() > -1e-8
    for alpha in (0.3 + 0.2j, -0.5 + 0.1j, 0.0):
        psi = coherent_state(1, 40, alpha).rho
        oracle = float(np.real(np.trace(W @ psi)))
        assert abs(oracle - q_density(effect, alpha)) < 1e-6


def test_povm_positivity_across_parameters(rng):
    for _ in range(8):
        gamma = rng.uniform(0.3, 1.5)
        K = rng.uniform(0.0, 1.5)
        eta = rng.uniform(0.1, 1.0)
        t = rng.uniform(0.2, 1.5)
        _, _, _, effect = homodyne_effect(gamma, K, eta, t,
                                          seed=int(rng.integers(1 << 30)))
        W = effect_fock_operator(effect, 40)
        assert np.linalg.eigvalsh(W).min() > -1e-8


def test_povm_completeness_quadrature():
    _, lpp, _, _ = homodyne_effect(1.0, 0.4, 0.75, 0.9, seed=21)
    rho0 = coherent_state(1, 40, 0.4 - 0.3j).rho
    grid = np.linspace(-6, 6, 241)
    vals = []
    for dv in grid:
        eff = effect_from_blocks(lpp, np.array([dv + 0j]))
        W = effect_fock_operator(eff, 40)
        vals.append(float(np.real(np.trace(W @ rho0))))
    total = simpson(vals, x=grid)
    assert abs(total - 1.0) < 1e-3


def test_retrodiction_flat_prior_returns_effect_mean():
    _, _, _, effect = homodyne_effect(1.0, 0.3, 0.9, 1.1, seed=33)
    post = retrodict_posterior(effect)
    assert np.abs(post.mean - effect.alpha_mean).max() < 1e-12
    assert np.isinf(post.covariance[1, 1])     # no p information
    assert np.isfinite(post.covariance[0, 0])


def test_retrodiction_concentrated_prior_dominates():
    _, _, _, effect = homodyne_effect(1.0, 0.3, 0.9, 1.1, seed=33)
    alpha0 = 1.4 - 0.6j
    tiny = 1e-8 * np.eye(2)
    post = retrodict_posterior(effect, prior_mean=alpha0, prior_cov=tiny)
    assert abs(post.mean[0] - alpha0) < 1e-6
    assert post.covariance[0, 0] < 2e-8


def test_effect_d_statistics_consistency():
    _, _, _, effect = homodyne_effect(1.0, 0.4, 0.8, 0.9, seed=5)
    alpha0 = 0.3 - 0.7j
    d_mean = effect.d_mean_for(alpha0)
    # the retrodicted mean of that expected record is alpha0 along the
    # informative direction (x); the p component carries no information
    eff2 = effect_from_blocks(np.block([[effect.Lpp, effect.Lpp_breve],
                                        [effect.Lpp_breve, effect.Lpp.conj()]]),
                              d_mean)
    assert abs(eff2.alpha_mean[0].real - alpha0.real) < 1e-10
    assert abs(eff2.alpha_mean[0].imag) < 1e-10


def test_two_mode_product_effect_block_diagonalizes():
    # two independent homodyne modes: the joint effect factorizes
    from lintraj.system import SystemSpec, validate_spec

    g1, g2 = 1.0, 0.6
    C = np.zeros((2, 4), dtype=complex)
    C[0, :2] = np.sqrt(g1 / 2) * np.array([1, 1j])
    C[1, 2:] = np.sqrt(g2 / 2) * np.array([1, 1j])
    M = np.zeros((2, 4), dtype=complex)
    M[0, 0] = 1.0
    M[1, 1] = 1.0
    spec = validate_spec(SystemSpec(n_modes=2, n_channels=2,
                                    G=np.zeros((4, 4)), C=C, M=M))
    rep = rep_of_generator(compute_generator(spec))
    nc = compute_noise_couplings(spec)
    rec = sample_ostensible_record(spec, 1e-3, 0.8, seed=3)
    table = BlockTable(rep, 1e-3, rec.steps)
    ints = accumulate_integrals(table, nc, rec)
    lpp = povm_blocks(table.final_blocks())
    d = stochastic_d(ints, lpp)
    effect = effect_from_blocks(lpp, d)
    # no cross-mode couplings anywhere
    assert abs(lpp[0, 1]) < 1e-12            # mode-1 x mode-2 squeezing-like
    assert abs(lpp[0, 3]) < 1e-12
    # each diagonal entry matches its own single-mode closed form
    t = rec.t_final
    for k, g in ((0, g1), (1, g2)):
        want = -(1 - np.exp(-g * t)) / 2
        assert abs(lpp[k, k] - want) < 1e-12
        assert abs(lpp[k, k + 2] - want) < 1e-12
    # per-mode record summaries match independent single-mode runs
    from lintraj.trajectory import MeasurementRecord

    for k, g in ((0, g1), (1, g2)):
        sub = builtin_homodyne_thermal(g, 0.0, 1.0)
        y = np.zeros((rec.steps, 4))
        y[:, 0] = rec.y[:, k]
        sub_rec = MeasurementRecord(dt=rec.dt, y=y)
        sub_rep = rep_of_generator(compute_generator(sub))
        sub_table = BlockTable(sub_rep, rec.dt, rec.steps)
        sub_ints = accumulate_integrals(sub_table, compute_noise_couplings(sub),
                                        sub_rec)
        sub_lpp = povm_blocks(sub_table.final_blocks())
        sub_d = stochastic_d(sub_ints, sub_lpp)
        assert abs(d[k] - sub_d[0]) < 1e-12
    # retrodiction stays per-mode
    assert effect.alpha_covariance()[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_three_mode_effect_is_well_formed(rng):
    # the algebraic pipeline and effect construction carry any mode count
    from conftest import random_spec

    spec = random_spec(3, 2, rng)
    rep = rep_of_generator(compute_generator(spec))
    from lintraj.lie_rep import propagator_blocks as pb

    lpp = povm_blocks(pb(rep, 0.4))
    effect = effect_from_blocks(lpp, np.zeros(3, complex))
    w = np.linalg.eigvalsh(effect.phi)
    assert w.max() < 1e-8 * max(1.0, abs(w).max())


def test_optomech_closed_form_consistency():
    mu_eff, gamma, K, chi, t = 1.0, 0.1, 0.0, 0.5, 40.0
    cf = optomech_closed_form(mu_eff, gamma, K, chi, t)
    assert cf.sigma_p2 < cf.sigma_x2
    assert abs(-1.0 / (2 * (cf.Lpp_breve + cf.Lpp)) - cf.sigma_x2) < 1e-12
    assert abs(-1.0 / (2 * (cf.Lpp_breve - cf.Lpp)) - cf.sigma_p2) < 1e-12
    sym = optomech_closed_form(mu_eff, gamma, K, 0.0, t)
    assert abs(sym.sigma_x2 - sym.sigma_p2) < 1e-14
    assert abs(sym.Lpp) < 1e-14


def test_optomech_pipeline_matches_closed_form_sigma():
    mu, eta, gamma, K_th, chi = 1.0, 1.0, 0.1, 0.0, 0.5
    spec = builtin_optomech_squeezing(mu, eta, gamma, K_th, chi)
    t = 50.0
    lpp = povm_blocks(propagator_blocks(rep_of_generator(compute_generator(spec)), t))
    cf = optomech_closed_form(mu * eta, gamma, K_th, chi, t)
    sigma_x2 = -1.0 / (2 * (lpp[0, 1] + lpp[0, 0]).real)
    sigma_p2 = -1.0 / (2 * (lpp[0, 1] - lpp[0, 0]).real)
    assert abs(sigma_x2 - cf.sigma_x2) < 1e-10
    assert abs(sigma_p2 - cf.sigma_p2) < 1e-10


def test_optomech_record_summary_two_kernel_form():
    mu, eta, gamma, K_th, chi = 1.0, 0.9, 0.1, 0.1, 0.5
    spec = builtin_optomech_squeezing(mu, eta, gamma, K_th, chi)
    mu_eff = mu * eta
    K = K_th + mu * (1 - eta) / gamma
    rep = rep_of_generator(compute_generator(spec))
    nc = compute_noise_couplings(spec)
    t, dt = 12.0, 5e-3
    steps = int(t / dt)
    rng = np.random.default_rng(5)
    y = np.zeros((steps, 6))
    support = int(5.0 / dt)
    y[:support, 0] = rng.normal(size=support) / np.sqrt(dt)
    y[:support, 1] = rng.normal(size=support) / np.sqrt(dt)
    from lintraj.trajectory import MeasurementRecord

    rec = MeasurementRecord(dt=dt, y=y)
    table = BlockTable(rep, dt, steps)
    ints = accumulate_integrals(table, nc, rec)
    lpp = povm_blocks(table.final_blocks())
    d = stochastic_d(ints, lpp)[0]
    cf = optomech_closed_form(mu_eff, gamma, K, chi, t, rec)
    assert abs(d - cf.d) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_phi_matrix_reproduces_f(n, rng):
    # v^T Phi v = F(alpha) = 2 alpha^dag Lpp_breve alpha + 2 Re(alpha^dag Lpp alpha*)
    lpp = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    lpp = (lpp + lpp.T) / 2
    lpp_breve = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    phi = _phi_matrix(lpp, lpp_breve)
    assert np.array_equal(phi, phi.T)
    for _ in range(5):
        alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = (2 * np.real(np.vdot(alpha, lpp_breve @ alpha))
             + 2 * np.real(np.vdot(alpha, lpp @ alpha.conj())))
        v = np.concatenate([alpha.real, alpha.imag])
        assert abs(v @ phi @ v - f) <= 1e-12 * max(1.0, abs(f))
