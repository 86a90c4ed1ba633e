import numpy as np
import pytest

from lintraj.errors import TruncationOverflow
from lintraj.oracle_sme import _check_tail, integrate_linear_sme, integrate_me
from lintraj.state_engine import (
    coherent_state,
    expectation,
    fock_operators,
    fock_state,
    normalize_and_trace,
    trace_distance,
    vacuum_state,
)
from lintraj.system import SystemSpec, builtin_homodyne_thermal, validate_spec
from lintraj.trajectory import MeasurementRecord, sample_ostensible_record

from conftest import IntegratorConfig, integrate_nonlinear_sme


def test_me_coherent_decay():
    gamma = 1.0
    spec = builtin_homodyne_thermal(gamma, 0.0, 0.5)
    D = 20
    alpha0 = 0.8
    rho0 = coherent_state(1, D, alpha0)
    t_final = 1.0
    a, _, _ = fock_operators(D)
    final = integrate_me(spec, rho0, t_final, dt=1e-3)
    want = alpha0 * np.exp(-gamma * t_final / 2)
    assert abs(expectation(final, a) - want) < 1e-5


def test_me_thermal_steady_state():
    gamma, K = 1.0, 2.0
    spec = builtin_homodyne_thermal(gamma, K, 0.0)
    D = 36
    rho0 = vacuum_state(1, D)
    _, _, nop = fock_operators(D)
    final = integrate_me(spec, rho0, 20.0 / gamma, dt=5e-3)
    assert abs(np.real(expectation(final, nop)) - K) < 1e-4


def test_unitary_evolution_preserves_purity():
    omega = 1.3
    spec = validate_spec(SystemSpec(n_modes=1, n_channels=1,
                                    G=omega * np.eye(2),
                                    C=np.zeros((1, 2), dtype=complex),
                                    M=np.zeros((1, 2), dtype=complex)))
    rho0 = coherent_state(1, 18, 0.5)
    final = integrate_me(spec, rho0, 1.0, dt=1e-3)
    assert abs(final.purity() - 1.0) < 1e-8


def test_linear_sme_reduces_to_me_without_monitoring():
    spec = builtin_homodyne_thermal(1.0, 0.4, 0.0)
    D = 18
    rho0 = coherent_state(1, D, 0.4)
    steps = 400
    rec = MeasurementRecord(dt=1e-3, y=np.zeros((steps, 4)))
    lin = integrate_linear_sme(spec, rho0, rec)
    me = integrate_me(spec, rho0, steps * 1e-3, dt=1e-3)
    lin_n, trace = normalize_and_trace(lin)
    assert abs(trace - 1.0) < 1e-3
    assert trace_distance(lin_n.rho, me.rho) < 1e-3


def test_vacuum_is_dark_state_at_zero_temperature():
    spec = builtin_homodyne_thermal(1.0, 0.0, 0.9)
    rho0 = vacuum_state(1, 10)
    rec = sample_ostensible_record(spec, 1e-3, 0.5, seed=4)
    lin = integrate_linear_sme(spec, rho0, rec)
    lin_n, _ = normalize_and_trace(lin)
    assert trace_distance(lin_n.rho, rho0.rho) < 1e-12


def test_nonlinear_sme_unmonitored_is_deterministic_me():
    spec = builtin_homodyne_thermal(1.0, 0.3, 0.0)
    D = 18
    rho0 = coherent_state(1, D, 0.5)
    cfg = IntegratorConfig(dt=1e-3, t_final=0.4, seed=1)
    final, rec = integrate_nonlinear_sme(spec, rho0, cfg)
    assert np.abs(rec.y).max() == 0.0
    me = integrate_me(spec, rho0, 0.4, dt=1e-3)
    assert trace_distance(final.rho, me.rho) < 1e-3


def test_nonlinear_sme_pure_unravelling_keeps_purity():
    # the exact pipeline keeps a pure state pure to 1e-6 (see state engine
    # tests); the Euler scheme only tracks that to its own discretization floor
    spec = builtin_homodyne_thermal(1.0, 0.0, 1.0)
    D = 24
    rho0 = fock_state(1, D, 1)
    cfg = IntegratorConfig(dt=1e-4, t_final=0.3, seed=7)
    final, _ = integrate_nonlinear_sme(spec, rho0, cfg)
    assert abs(final.purity() - 1.0) < 5e-3


def test_linear_nonlinear_consistency_on_shared_record():
    spec = builtin_homodyne_thermal(1.0, 0.3, 0.7)
    D = 22
    rho0 = coherent_state(1, D, 0.6)
    cfg = IntegratorConfig(dt=1e-4, t_final=0.3, seed=9)
    final, rec = integrate_nonlinear_sme(spec, rho0, cfg)
    lin = integrate_linear_sme(spec, rho0, rec)
    lin_n, _ = normalize_and_trace(lin)
    assert trace_distance(lin_n.rho, final.rho) < 2e-3


def test_strong_convergence_order_at_least_half():
    # Euler error measured against the exact factorized solution on a common
    # Brownian path, coarse-grained consistently
    from lintraj.lie_rep import rep_of_generator
    from lintraj.parameterization import compute_generator, compute_noise_couplings
    from lintraj.state_engine import apply_evolution
    from lintraj.trajectory import BlockTable, accumulate_integrals

    spec = builtin_homodyne_thermal(1.0, 0.2, 0.8)
    D = 18
    rho0 = coherent_state(1, D, 0.5)
    t_final = 0.25
    fine = 2 ** 11
    rng = np.random.default_rng(11)
    dw = rng.normal(size=fine) * np.sqrt(t_final / fine)
    rep = rep_of_generator(compute_generator(spec))
    nc = compute_noise_couplings(spec)

    def err(agg):
        steps = fine // agg
        dt = t_final / steps
        y = np.zeros((steps, 4))
        y[:, 0] = dw.reshape(steps, agg).sum(axis=1) / dt
        rec = MeasurementRecord(dt=dt, y=y)
        euler = normalize_and_trace(integrate_linear_sme(spec, rho0, rec))[0]
        table = BlockTable(rep, dt, steps)
        ints = accumulate_integrals(table, nc, rec)
        exact = normalize_and_trace(apply_evolution(rho0, table.final_blocks(),
                                                    ints))[0]
        return trace_distance(euler.rho, exact.rho)

    e_coarse, e_fine = err(16), err(1)
    order = np.log(e_coarse / e_fine) / np.log(16.0)
    assert order > 0.45


def test_ostensible_trace_averages_to_one():
    spec = builtin_homodyne_thermal(1.0, 0.4, 0.8)
    D = 16
    rho0 = coherent_state(1, D, 0.4)
    traces = []
    for k in range(150):
        rec = sample_ostensible_record(spec, 1e-3, 0.3, seed=1000 + k)
        lin = integrate_linear_sme(spec, rho0, rec)
        traces.append(float(np.real(np.trace(lin.rho))))
    traces = np.array(traces)
    se = traces.std() / np.sqrt(len(traces))
    assert abs(traces.mean() - 1.0) < 3 * se + 5e-3


def test_tail_check_fails_a_nan_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = np.nan
    with pytest.raises(TruncationOverflow):
        _check_tail(rho, 1, 4, "t=0")
