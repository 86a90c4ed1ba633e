"""Physical model definition: N bosonic modes with linear couplings and dyne monitoring.

A system is specified by the triple ``(G, C, M)``:

* ``G`` -- real symmetric ``2N x 2N`` quadratic form of the Hamiltonian,
  ``H = x^T G x / 2`` in the quadrature ordering ``(q_1, p_1, ..., q_N, p_N)``,
* ``C`` -- complex ``L x 2N`` coefficients of the ``L`` Lindblad operators,
  ``c_k = sum_m C[k, m] x_m``,
* ``M`` -- complex ``L x 2L`` measurement setting; ``M M^dag`` must be diagonal
  with entries (detector efficiencies) in ``[0, 1]``.

The ``2L`` real measurement currents satisfy
``y dt = <M^dag c + M^T c^(dag-elementwise)> dt + dw``.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    MeasurementSettingInvalid,
    NonHermitianF,
    NonSymmetricG,
    ParameterOutOfRange,
)

DEFAULT_TOL = 1e-12


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0, 1], [-1, 0]] block per mode."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for n in range(n_modes):
        out[2 * n:2 * n + 2, 2 * n:2 * n + 2] = block
    return out


def mode_rotation(n_modes: int) -> np.ndarray:
    """Unitary taking (a_1, a_1^dag, ...) coefficients to quadrature coefficients.

    One ``[[1, 1], [-i, i]] / sqrt(2)`` block per mode.
    """
    block = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0)
    out = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    for n in range(n_modes):
        out[2 * n:2 * n + 2, 2 * n:2 * n + 2] = block
    return out


@dataclass(frozen=True)
class SystemSpec:
    """Validated physical model. Immutable; safe to share across threads.

    Attributes
    ----------
    n_modes : int
        Number of physical modes N.
    n_channels : int
        Number of Lindblad channels L.
    G : (2N, 2N) real ndarray
        Hamiltonian quadratic form, units of angular frequency.
    C : (L, 2N) complex ndarray
        Lindblad coefficient matrix, units of sqrt(rate).
    M : (L, 2L) complex ndarray
        Measurement setting, dimensionless.
    """

    n_modes: int
    n_channels: int
    G: np.ndarray
    C: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        # own copies, frozen: the spec is immutable and shareable
        object.__setattr__(self, "G", np.array(self.G, dtype=float))
        object.__setattr__(self, "C", np.array(self.C, dtype=complex))
        object.__setattr__(self, "M", np.array(self.M, dtype=complex))
        self.G.setflags(write=False)
        self.C.setflags(write=False)
        self.M.setflags(write=False)

    @property
    def symplectic(self) -> np.ndarray:
        return symplectic_form(self.n_modes)

    @property
    def efficiencies(self) -> np.ndarray:
        """Diagonal of M M^dag."""
        return np.real(np.diag(self.M @ self.M.conj().T))

    @property
    def monitored(self) -> np.ndarray:
        """Boolean mask over the 2L current components; True where M couples."""
        return np.abs(self.M).sum(axis=0) > 0


@dataclass(frozen=True)
class FockFormSpec:
    """Model given in mode-operator form: H = v^dag F v / 2, c = Z v.

    ``v = (a_1, a_1^dag, ..., a_N, a_N^dag)``; F must be Hermitian.
    """

    n_modes: int
    n_channels: int
    F: np.ndarray
    Z: np.ndarray
    M: np.ndarray


def validate_spec(spec: SystemSpec) -> SystemSpec:
    """Check all SystemSpec invariants; return the system unchanged on success.

    Raises
    ------
    DimensionMismatch, ParameterOutOfRange, NonSymmetricG,
    MeasurementSettingInvalid
    """
    n, ell = spec.n_modes, spec.n_channels
    if n < 1 or ell < 1:
        raise DimensionMismatch("need n_modes >= 1 and n_channels >= 1")
    if spec.G.shape != (2 * n, 2 * n):
        raise DimensionMismatch(f"G must be {2 * n}x{2 * n}, got {spec.G.shape}")
    if spec.C.shape != (ell, 2 * n):
        raise DimensionMismatch(f"C must be {ell}x{2 * n}, got {spec.C.shape}")
    if spec.M.shape != (ell, 2 * ell):
        raise DimensionMismatch(f"M must be {ell}x{2 * ell}, got {spec.M.shape}")
    for name in ("G", "C", "M"):
        if not np.isfinite(getattr(spec, name)).all():
            raise ParameterOutOfRange(f"{name} has non-finite entries")
    if not np.array_equal(spec.G, spec.G.T):
        raise NonSymmetricG("G must be exactly symmetric")
    mmd = spec.M @ spec.M.conj().T
    off = mmd - np.diag(np.diag(mmd))
    if np.max(np.abs(off), initial=0.0) > DEFAULT_TOL:
        raise MeasurementSettingInvalid("M M^dag is not diagonal")
    eta = np.real(np.diag(mmd))
    if np.max(np.abs(np.imag(np.diag(mmd))), initial=0.0) > DEFAULT_TOL:
        raise MeasurementSettingInvalid("M M^dag has complex diagonal entries")
    if np.any(eta < -DEFAULT_TOL) or np.any(eta > 1.0 + DEFAULT_TOL):
        raise MeasurementSettingInvalid(f"efficiencies outside [0, 1]: {eta}")
    return spec


def from_fock_form(ff: FockFormSpec) -> SystemSpec:
    """Convert an (F, Z, M) model to quadrature form: G = X F X^dag, C = Z X^dag."""
    n = ff.n_modes
    F = np.asarray(ff.F, dtype=complex)
    Z = np.asarray(ff.Z, dtype=complex)
    if F.shape != (2 * n, 2 * n):
        raise DimensionMismatch(f"F must be {2 * n}x{2 * n}, got {F.shape}")
    if np.max(np.abs(F - F.conj().T), initial=0.0) > DEFAULT_TOL:
        raise NonHermitianF("F must be Hermitian")
    X = mode_rotation(n)
    G = X @ F @ X.conj().T
    if np.max(np.abs(G.imag), initial=0.0) > DEFAULT_TOL * max(1.0, np.abs(G).max()):
        raise NonHermitianF("X F X^dag is not real; F is not a valid Hamiltonian form")
    G = np.real(G)
    G = (G + G.T) / 2.0
    spec = SystemSpec(n_modes=n, n_channels=ff.n_channels, G=G, C=Z @ X.conj().T,
                      M=ff.M)
    return validate_spec(spec)


def builtin_homodyne_thermal(gamma: float, K: float, eta: float) -> SystemSpec:
    """Single mode decaying at rate gamma into a thermal bath of occupation K,
    with x-quadrature homodyne detection at efficiency eta.

    Two Lindblad channels; only the first current component is monitored, so
    records have layout ``y = (y, 0, 0, 0)``.
    """
    if gamma <= 0:
        raise ParameterOutOfRange("gamma must be > 0")
    if K < 0:
        raise ParameterOutOfRange("K must be >= 0")
    if not 0.0 <= eta <= 1.0:
        raise ParameterOutOfRange("eta must lie in [0, 1]")
    pref = np.sqrt(gamma / (2 * K + 1))
    Z = pref * np.array([
        [K + 1.0, -K],
        [np.sqrt(K * (K + 1)), np.sqrt(K * (K + 1))],
    ], dtype=complex)
    M = np.zeros((2, 4), dtype=complex)
    M[0, 0] = np.sqrt(eta)
    return from_fock_form(FockFormSpec(n_modes=1, n_channels=2, F=np.zeros((2, 2)),
                                       Z=Z, M=M))


def builtin_optomech_squeezing(mu: float, eta: float, gamma: float, K_th: float,
                               chi: float, theta: float = 0.0) -> SystemSpec:
    """Single mechanical mode under continuous position measurement of strength mu
    (efficiency eta), a thermal bath (gamma, K_th), and parametric squeezing of
    strength chi along the quadrature angle theta.

    The optical cavity is adiabatically eliminated; the squeezing angle is
    absorbed into the measurement setting by a canonical rotation, so G is
    theta-independent. Effective parameters: mu' = mu * eta and
    K = K_th + mu * (1 - eta) / gamma.
    """
    if min(mu, gamma, chi, K_th) < 0:
        raise ParameterOutOfRange("rates must be >= 0")
    if not 0.0 <= eta <= 1.0:
        raise ParameterOutOfRange("eta must lie in [0, 1]")
    if gamma == 0:
        raise ParameterOutOfRange("gamma must be > 0 (thermal channel defines the bath)")
    mu_eff = mu * eta
    K = K_th + mu * (1.0 - eta) / gamma
    s = np.sqrt(gamma * K + mu_eff)
    C = np.array([
        [s, 0.0],
        [0.0, s],
        [np.sqrt(gamma / 2), 1j * np.sqrt(gamma / 2)],
    ], dtype=complex)
    M = np.zeros((3, 6), dtype=complex)
    if s > 0:
        r = np.sqrt(mu_eff) / s
        c2, s2 = np.cos(theta / 2), np.sin(theta / 2)
        M[0, 0], M[0, 1] = r * c2, r * s2
        M[1, 0], M[1, 1] = -r * s2, r * c2
    G = -(chi / 2.0) * np.array([[0.0, 1.0], [1.0, 0.0]])
    return validate_spec(SystemSpec(n_modes=1, n_channels=3, G=G, C=C, M=M))


_BUILTINS = {
    "homodyne_thermal": builtin_homodyne_thermal,
    "optomech_squeezing": builtin_optomech_squeezing,
}


def _config_count(cfg: dict, key: str) -> int:
    """An integer entry of an explicit-matrix config; ConfigError otherwise."""
    value = cfg[key]
    # bool is an int subclass, but true/false is no count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _config_matrix(value, key: str) -> np.ndarray:
    """The list of finite real numbers under ``key`` of an explicit-matrix
    config, as a float array; ConfigError otherwise."""
    value = np.asarray(value)
    if value.dtype.kind not in "iuf":
        raise ConfigError(f"{key} must be a list of real numbers")
    value = value.astype(float)
    if not np.isfinite(value).all():
        raise ConfigError(f"{key} has non-finite entries")
    return value


def spec_from_config(cfg: dict) -> SystemSpec:
    """Build a SystemSpec from a JSON-compatible dict.

    Either ``{"builtin": {"name": ..., "params": {...}}}`` or explicit matrices
    with keys ``n_modes``, ``n_channels``, ``G`` (row-major real), ``C_re``,
    ``C_im``, ``M_re``, ``M_im``.
    """
    if "builtin" in cfg:
        b = cfg["builtin"]
        if not isinstance(b, dict):
            raise ConfigError(f"builtin must be an object with 'name' and "
                              f"'params', got {b!r}")
        name = b.get("name")
        fn = _BUILTINS.get(name) if isinstance(name, str) else None
        if fn is None:
            raise ConfigError(f"unknown builtin {name!r}")
        params = b.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"builtin {name!r}: params must be an object")
        try:
            inspect.signature(fn).bind(**params)
        except TypeError as exc:
            raise ConfigError(f"builtin {name!r}: {exc}") from None
        for key, value in params.items():
            # bool is an int subclass, but true/false is no parameter value;
            # the bound rejects nan, inf and ints too large for a float
            real = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (real and abs(value) <= sys.float_info.max):
                raise ConfigError(f"builtin {name!r}: param {key!r} must be "
                                  f"a finite real number, got {value!r}")
        return fn(**params)
    try:
        n = _config_count(cfg, "n_modes")
        ell = _config_count(cfg, "n_channels")
        G = _config_matrix(cfg["G"], "G").reshape(2 * n, 2 * n)
        C = (_config_matrix(cfg["C_re"], "C_re")
             + 1j * _config_matrix(cfg.get("C_im", 0.0), "C_im")
             ).reshape(ell, 2 * n)
        M = (_config_matrix(cfg["M_re"], "M_re")
             + 1j * _config_matrix(cfg.get("M_im", 0.0), "M_im")
             ).reshape(ell, 2 * ell)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad system config: {exc}") from exc
    return validate_spec(SystemSpec(n_modes=n, n_channels=ell, G=G, C=C, M=M))


def spec_to_config(spec: SystemSpec) -> dict:
    """Inverse of :func:`spec_from_config` (explicit-matrix form)."""
    return {
        "n_modes": spec.n_modes,
        "n_channels": spec.n_channels,
        "G": spec.G.ravel().tolist(),
        "C_re": spec.C.real.ravel().tolist(),
        "C_im": spec.C.imag.ravel().tolist(),
        "M_re": spec.M.real.ravel().tolist(),
        "M_im": spec.M.imag.ravel().tolist(),
    }
