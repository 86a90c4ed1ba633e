import numpy as np
import pytest

from lintraj.parameterization import (
    QuadraticForm,
    compute_generator,
    compute_noise_couplings,
    half_swap,
    quadrature_expansion,
)
from lintraj.system import (
    SystemSpec,
    builtin_homodyne_thermal,
    builtin_optomech_squeezing,
    validate_spec,
)

from conftest import (
    commutator,
    generator_blocks,
    generator_rdl_composites,
    random_spec,
)


def homodyne_reference_blocks(gamma, K, eta):
    den = 2 * K + 1
    return {
        "R": -gamma * eta * K ** 2 / (2 * den),
        "R_breve": gamma * K / (2 * den) * (den - eta * K),
        "L": -gamma * eta * (K + 1) ** 2 / (2 * den),
        "L_breve": gamma * (K + 1) / (2 * den) * (den - eta * (K + 1)),
        "D": gamma / (2 * den) * (2 * eta * K * (K + 1) - den ** 2),
        "D_breve": gamma * eta * K * (K + 1) / den,
    }


@pytest.mark.parametrize("gamma,K,eta", [(1.0, 0.0, 1.0), (1.3, 0.7, 0.6),
                                         (0.8, 2.5, 0.2)])
def test_homodyne_generator_blocks(gamma, K, eta):
    gen = compute_generator(builtin_homodyne_thermal(gamma, K, eta))
    ref = homodyne_reference_blocks(gamma, K, eta)
    blocks = generator_blocks(gen)
    for name, want in ref.items():
        assert abs(blocks[name][0, 0] - want) < 1e-12, name


def test_homodyne_generator_closed_forms_random_sweep(rng):
    # single-mode closed forms over a large random parameter sweep
    for _ in range(1000):
        gamma = rng.uniform(0.1, 3.0)
        K = rng.uniform(0.0, 3.0)
        eta = rng.uniform(0.0, 1.0)
        gen = compute_generator(builtin_homodyne_thermal(gamma, K, eta))
        ref = homodyne_reference_blocks(gamma, K, eta)
        blocks = generator_blocks(gen)
        for name, want in ref.items():
            assert abs(blocks[name][0, 0] - want) < 1e-12


def test_optomech_generator_blocks():
    mu, eta, gamma, K_th, chi = 1.0, 1.0, 0.1, 0.0, 0.5
    gen = compute_generator(builtin_optomech_squeezing(mu, eta, gamma, K_th, chi))
    mu_eff = mu * eta
    K = K_th + mu * (1 - eta) / gamma
    b = generator_blocks(gen)
    assert abs(b["L"][0, 0] - chi / 4) < 1e-12
    assert abs(b["L_breve"][0, 0] - gamma * (K + 1) / 2) < 1e-12
    assert abs(b["R"][0, 0] + chi / 4) < 1e-12
    assert abs(b["R_breve"][0, 0] - gamma * K / 2) < 1e-12
    assert abs(b["D"][0, 0] + gamma * (2 * K + 1) / 2 + 2 * mu_eff) < 1e-12
    assert abs(b["D_breve"][0, 0]) < 1e-12


def test_pure_hamiltonian_generator_is_number_like():
    # G = omega * identity with no couplings: only the number-species blocks
    # survive, with no partner mixing
    omega = 1.3
    spec = validate_spec(SystemSpec(n_modes=1, n_channels=1,
                                    G=omega * np.eye(2),
                                    C=np.zeros((1, 2), dtype=complex),
                                    M=np.zeros((1, 2), dtype=complex)))
    gen = compute_generator(spec)
    assert np.abs(gen.R).max() < 1e-14
    assert np.abs(gen.L).max() < 1e-14
    assert abs(gen.D[0, 0] + 1j * omega) < 1e-14
    assert abs(gen.D[0, 1]) < 1e-14
    assert abs(gen.D[1, 1] - 1j * omega) < 1e-14
    assert abs(gen.const) < 1e-14


def test_generator_has_no_linear_part(rng):
    # no term of the deterministic generator is linear in the modes
    for n, ell in [(1, 1), (1, 3), (2, 2), (2, 3)]:
        gen = compute_generator(random_spec(n, ell, rng))
        assert not np.any(gen.lin_l) and not np.any(gen.lin_r)


def test_homodyne_noise_couplings():
    gamma, K, eta = 1.3, 0.7, 0.6
    nc = compute_noise_couplings(builtin_homodyne_thermal(gamma, K, eta))
    y = np.zeros(4)
    y[0] = 1.0
    dl = y @ nc.W_l
    dr = y @ nc.W_r
    pref = np.sqrt(gamma * eta / (2 * K + 1))
    assert np.allclose(dl, (K + 1) * pref * np.ones(2), atol=1e-12)
    assert np.allclose(dr, -K * pref * np.ones(2), atol=1e-12)


def test_optomech_noise_couplings_complex_current():
    mu, eta = 1.0, 1.0
    spec = builtin_optomech_squeezing(mu, eta, 0.1, 0.0, 0.5, theta=0.0)
    nc = compute_noise_couplings(spec)
    yx, yp = 0.37, -0.81
    y = np.zeros(6)
    y[0], y[1] = yx, yp
    yc = (yx + 1j * yp) / np.sqrt(2)
    dl = y @ nc.W_l
    dr = y @ nc.W_r
    assert abs(dl[0] - np.sqrt(mu * eta) * yc.conjugate()) < 1e-12
    assert abs(dr[0] - np.sqrt(mu * eta) * yc) < 1e-12


def test_zero_measurement_gives_zero_couplings():
    C = np.array([[1.0, 0.5j]])
    spec = validate_spec(SystemSpec(n_modes=1, n_channels=1,
                                    G=np.zeros((2, 2)), C=C,
                                    M=np.zeros((1, 2))))
    nc = compute_noise_couplings(spec)
    assert np.abs(nc.W_l).max() == 0.0
    assert np.abs(nc.W_r).max() == 0.0


def test_coupling_pairing_for_real_records(rng):
    for n, ell in [(1, 2), (2, 3)]:
        nc = compute_noise_couplings(random_spec(n, ell, rng))
        assert np.abs(nc.W_l[:, n:] - nc.W_l[:, :n].conj()).max() < 1e-12
        assert np.abs(nc.W_r[:, n:] - nc.W_r[:, :n].conj()).max() < 1e-12


def test_composite_route_matches_normal_ordered_route(rng):
    for n, ell in [(1, 1), (1, 3), (2, 2), (3, 2)]:
        spec = random_spec(n, ell, rng)
        gen = compute_generator(spec)
        R, D, L = generator_rdl_composites(spec)
        scale = max(1.0, np.abs(gen.D).max())
        assert np.abs(R - gen.R).max() < 1e-12 * scale
        assert np.abs(D - gen.D).max() < 1e-12 * scale
        assert np.abs(L - gen.L).max() < 1e-12 * scale


def test_generator_tilde_conjugation_invariance(rng):
    # swapping physical/partner halves and conjugating leaves (R, D, L) fixed
    for n, ell in [(1, 2), (2, 2)]:
        spec = random_spec(n, ell, rng)
        gen = compute_generator(spec)
        swap = half_swap(n)
        for X in (gen.R, gen.D, gen.L):
            assert np.abs(swap @ X.conj() @ swap - X).max() < 1e-10


def test_block_pairing_invariants(rng):
    for n, ell in [(1, 1), (2, 2), (3, 1)]:
        gen = compute_generator(random_spec(n, ell, rng))
        gen.check_block_structure()
        assert np.abs(gen.R - gen.R.T).max() < 1e-12
        assert np.abs(gen.L - gen.L.T).max() < 1e-12


def test_unmonitored_spec_reduces_to_unconditioned_generator(rng):
    # with M = 0 the measurement composites vanish identically
    n, ell = 2, 2
    spec = random_spec(n, ell, rng)
    spec0 = validate_spec(SystemSpec(n_modes=n, n_channels=ell, G=spec.G,
                                     C=spec.C, M=np.zeros_like(spec.M)))
    gen0 = compute_generator(spec0)
    u = quadrature_expansion(n)
    swap = half_swap(n)
    C, G = spec0.C, spec0.G
    B = C.conj().T @ C

    def tt(a):
        return u.T @ a @ u

    def ts(a):
        return u.T @ a @ u.conj()

    def dd(a):
        return u.conj().T @ a @ u

    def ds(a):
        return u.conj().T @ a @ u.conj()

    def bar(a):
        return swap @ a @ swap

    L = -0.5j * (tt(G) - bar(ds(G))) + swap @ dd(B) - 0.5 * tt(B) \
        - 0.5 * bar(ds(B.conj()))
    R = -0.5j * (ds(G) - bar(tt(G))) + swap @ ts(B) - 0.5 * ds(B) \
        - 0.5 * bar(tt(B.conj()))
    D = -1.0j * (dd(G) - bar(ts(G))) + swap @ tt(B) + ds(B.conj()) @ swap \
        - 0.5 * (dd(B) + dd(B.conj()) + bar(ts(B)) + bar(ts(B.conj())))
    assert np.abs((R + R.T) / 2 - gen0.R).max() < 1e-12
    assert np.abs(D - gen0.D).max() < 1e-12
    assert np.abs((L + L.T) / 2 - gen0.L).max() < 1e-12


def test_commutator_closure_and_antisymmetry(rng):
    n = 2
    m = 2 * n

    def rand_qf():
        arr = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        return QuadraticForm(n=n, const=complex(rng.normal()),
                             lin_l=rng.normal(size=m) + 0j,
                             lin_r=rng.normal(size=m) + 0j,
                             R=arr, D=arr[::-1].copy(), L=arr.T.copy()).symmetrized()

    a, b = rand_qf(), rand_qf()
    ab = commutator(a, b)
    ba = commutator(b, a)
    assert np.abs(ab.R + ba.R).max() < 1e-12
    assert np.abs(ab.D + ba.D).max() < 1e-12
    assert np.abs(ab.L + ba.L).max() < 1e-12
    assert abs(ab.const + ba.const) < 1e-12
