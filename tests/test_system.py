import json

import numpy as np
import pytest

from lintraj.errors import (
    DimensionMismatch,
    MeasurementSettingInvalid,
    NonHermitianF,
    NonSymmetricG,
    ParameterOutOfRange,
)
from lintraj.system import (
    FockFormSpec,
    SystemSpec,
    builtin_homodyne_thermal,
    builtin_optomech_squeezing,
    from_fock_form,
    mode_rotation,
    spec_from_config,
    spec_to_config,
    symplectic_form,
    validate_spec,
)

from conftest import random_spec, to_fock_form


def test_simple_single_channel_spec_is_valid():
    gamma, eta = 1.0, 0.7
    C = np.array([[np.sqrt(gamma) / np.sqrt(2), 1j * np.sqrt(gamma) / np.sqrt(2)]])
    M = np.array([[np.sqrt(eta), 0.0]])
    spec = validate_spec(SystemSpec(n_modes=1, n_channels=1,
                                    G=np.zeros((2, 2)), C=C, M=M))
    mmd = spec.M @ spec.M.conj().T
    assert np.allclose(mmd, np.diag([eta]))


def test_efficiency_above_one_rejected():
    C = np.array([[1.0, 1.0j]])
    M = np.array([[1.1, 0.0]])
    with pytest.raises(MeasurementSettingInvalid):
        validate_spec(SystemSpec(n_modes=1, n_channels=1,
                                 G=np.zeros((2, 2)), C=C, M=M))


def test_non_diagonal_mmdag_rejected():
    C = np.array([[1.0, 0.0], [0.0, 1.0]])
    M = np.zeros((2, 4), dtype=complex)
    M[0, 0] = M[0, 1] = M[1, 0] = 0.5
    with pytest.raises(MeasurementSettingInvalid):
        validate_spec(SystemSpec(n_modes=1, n_channels=2,
                                 G=np.zeros((2, 2)), C=C, M=M))


def test_nonsymmetric_g_rejected():
    C = np.array([[1.0, 0.0]])
    M = np.array([[1.0, 0.0]])
    G = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonSymmetricG):
        validate_spec(SystemSpec(n_modes=1, n_channels=1, G=G, C=C, M=M))


@pytest.mark.parametrize("name", ["G", "C", "M"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrices_rejected(name, bad):
    mats = {"G": np.zeros((2, 2)), "C": np.array([[1.0, 1.0j]]),
            "M": np.array([[0.5, 0.0]])}
    mats[name] = mats[name].astype(complex if name != "G" else float)
    mats[name][0, 0] = bad
    with pytest.raises(ParameterOutOfRange, match=f"^{name} "):
        validate_spec(SystemSpec(n_modes=1, n_channels=1, **mats))


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        validate_spec(SystemSpec(n_modes=1, n_channels=1, G=np.zeros((4, 4)),
                                 C=np.zeros((1, 2)), M=np.zeros((1, 2))))


def test_homodyne_builtin_matches_reference_layout():
    spec = builtin_homodyne_thermal(1.0, 0.0, 1.0)
    ff = to_fock_form(spec)
    assert np.allclose(ff.Z, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert spec.M[0, 0] == 1.0
    assert np.allclose(spec.M @ spec.M.conj().T, np.diag([1.0, 0.0]))
    assert list(spec.monitored) == [True, False, False, False]


def test_homodyne_builtin_general_prefactor():
    gamma, K = 2.0, 1.0
    spec = builtin_homodyne_thermal(gamma, K, 0.5)
    ff = to_fock_form(spec)
    pref = np.sqrt(gamma / (2 * K + 1))
    want = pref * np.array([[K + 1, -K],
                            [np.sqrt(K * (K + 1)), np.sqrt(K * (K + 1))]])
    assert np.allclose(ff.Z, want, atol=1e-12)


def test_homodyne_eta_zero_is_unmonitored():
    spec = builtin_homodyne_thermal(1.0, 0.0, 0.0)
    assert not spec.monitored.any()
    validate_spec(spec)


def test_homodyne_parameter_range():
    with pytest.raises(ParameterOutOfRange):
        builtin_homodyne_thermal(-1.0, 0.0, 0.5)
    with pytest.raises(ParameterOutOfRange):
        builtin_homodyne_thermal(1.0, -0.1, 0.5)
    with pytest.raises(ParameterOutOfRange):
        builtin_homodyne_thermal(1.0, 0.0, 1.5)


def test_optomech_builtin_effective_parameters():
    mu, eta, gamma, K_th, chi = 1.0, 1.0, 0.1, 0.0, 0.5
    spec = builtin_optomech_squeezing(mu, eta, gamma, K_th, chi)
    s = np.sqrt(gamma * K_th + mu * eta)
    assert np.allclose(spec.C[0], [s, 0])
    assert np.allclose(spec.C[1], [0, s])
    assert np.allclose(spec.C[2], [np.sqrt(gamma / 2), 1j * np.sqrt(gamma / 2)])
    assert np.allclose(spec.G, -(chi / 2) * np.array([[0, 1], [1, 0]]))
    assert np.allclose(spec.M @ spec.M.conj().T,
                       np.diag([mu * eta / s ** 2, mu * eta / s ** 2, 0.0]))


def test_optomech_theta_is_a_current_rotation():
    base = builtin_optomech_squeezing(1.0, 0.8, 0.2, 0.3, 0.4, theta=0.0)
    rot = builtin_optomech_squeezing(1.0, 0.8, 0.2, 0.3, 0.4, theta=np.pi)
    # same physics up to a rotation of the monitored current pair
    assert np.allclose(base.G, rot.G)
    assert np.allclose(base.C, rot.C)
    r = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(rot.M[:2, :2], r @ base.M[:2, :2])
    assert np.allclose(base.M @ base.M.conj().T, rot.M @ rot.M.conj().T)


def test_from_fock_form_zero_hamiltonian():
    Z = np.array([[0.3, 1.2j]])
    M = np.array([[0.5, 0.0]])
    ff = FockFormSpec(n_modes=1, n_channels=1, F=np.zeros((2, 2)), Z=Z, M=M)
    spec = from_fock_form(ff)
    assert np.allclose(spec.G, 0.0)
    assert np.allclose(spec.C, Z @ mode_rotation(1).conj().T)


def test_from_fock_form_harmonic_oscillator():
    omega = 1.7
    ff = FockFormSpec(n_modes=1, n_channels=1, F=omega * np.eye(2),
                      Z=np.array([[1.0, 0.0]]), M=np.array([[0.0, 0.0]]))
    spec = from_fock_form(ff)
    assert np.allclose(spec.G, omega * np.eye(2), atol=1e-14)


def test_from_fock_form_squeezing_hamiltonian():
    chi = 0.8
    F = np.array([[0.0, -1j * chi / 2], [1j * chi / 2, 0.0]])
    ff = FockFormSpec(n_modes=1, n_channels=1, F=F,
                      Z=np.array([[1.0, 0.0]]), M=np.array([[0.0, 0.0]]))
    spec = from_fock_form(ff)
    assert np.allclose(spec.G, -(chi / 2) * np.array([[0, 1], [1, 0]]), atol=1e-14)


def test_non_hermitian_f_rejected():
    F = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(NonHermitianF):
        from_fock_form(FockFormSpec(n_modes=1, n_channels=1, F=F,
                                    Z=np.array([[1.0, 0.0]]),
                                    M=np.array([[0.0, 0.0]])))


def test_fock_form_roundtrip_identity(rng):
    for n, ell in [(1, 2), (2, 1), (3, 2)]:
        spec = random_spec(n, ell, rng)
        back = from_fock_form(to_fock_form(spec))
        assert np.abs(back.G - spec.G).max() < 1e-12
        assert np.abs(back.C - spec.C).max() < 1e-12


def test_symplectic_form_properties():
    for n in (1, 2, 4):
        sig = symplectic_form(n)
        assert np.array_equal(sig.T, -sig)
        assert np.allclose(sig @ sig, -np.eye(2 * n))


def test_builtins_pass_validation():
    validate_spec(builtin_homodyne_thermal(2.0, 1.3, 0.4))
    validate_spec(builtin_optomech_squeezing(0.7, 0.6, 0.3, 1.1, 0.2, theta=1.0))


def test_config_roundtrip(tmp_path, rng):
    spec = random_spec(2, 2, rng)
    cfg = spec_to_config(spec)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(cfg))
    loaded = spec_from_config(json.loads(path.read_text()))
    assert np.abs(loaded.G - spec.G).max() == 0.0
    assert np.abs(loaded.C - spec.C).max() == 0.0
    assert np.abs(loaded.M - spec.M).max() == 0.0


def test_config_builtin():
    cfg = {"builtin": {"name": "homodyne_thermal",
                       "params": {"gamma": 1.0, "K": 0.2, "eta": 0.9}}}
    spec = spec_from_config(cfg)
    assert spec.n_channels == 2
    assert abs(spec.efficiencies[0] - 0.9) < 1e-12
