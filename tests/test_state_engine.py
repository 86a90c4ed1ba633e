from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from lintraj import state_engine
from lintraj.errors import DimensionMismatch, MatrixExpFailure, ZeroTrace
from lintraj.lie_rep import (
    normal_order_linear,
    propagator_blocks,
    reordering_scalar,
    rep_of_generator,
)
from lintraj.parameterization import compute_generator, compute_noise_couplings
from lintraj.state_engine import (
    EnsemblePropagator,
    EvolutionFactors,
    apply_evolution,
    coherent_state,
    evolution_superoperators,
    expectation,
    fock_operators,
    fock_state,
    normalize_and_trace,
    single_mode_exponentials,
    trace_distance,
    vacuum_state,
)
from lintraj.system import SystemSpec, builtin_homodyne_thermal, validate_spec
from lintraj.trajectory import (
    BlockTable,
    accumulate_integrals,
    sample_ostensible_record,
)

from conftest import (
    apply_evolution_power_series,
    dense_evolution,
    overflowing_integrals,
    random_single_mode_factors,
    random_spec,
)


def test_fock_operators_small_dims():
    a, ad, nop = fock_operators(2)
    assert np.array_equal(a, [[0, 1], [0, 0]])
    a, ad, nop = fock_operators(3)
    assert np.allclose(nop, np.diag([0, 1, 2]))
    # truncation defect concentrates in the top level
    D = 10
    a, ad, _ = fock_operators(D)
    defect = a @ ad - ad @ a - np.eye(D)
    assert abs(defect[D - 1, D - 1] + D) < 1e-12
    defect[D - 1, D - 1] = 0.0
    assert np.abs(defect).max() < 1e-12


def test_coherent_state_mean():
    alpha = 0.6 - 0.4j
    D = int(np.ceil(8 * abs(alpha) ** 2)) + 4
    state = coherent_state(1, D, alpha)
    a, _, _ = fock_operators(D)
    assert abs(expectation(state, a) - alpha) < 1e-6


def test_vacuum_and_fock_states():
    v = vacuum_state(1, 6)
    _, _, nop = fock_operators(6)
    assert abs(expectation(v, nop)) == 0.0
    f2 = fock_state(1, 6, 2)
    assert abs(expectation(f2, nop) - 2.0) < 1e-14


@pytest.mark.parametrize("make", [
    lambda: fock_state(1, 6, 6),                # level outside the truncation
    lambda: fock_state(1, 6, -1),
    lambda: fock_state(2, 6, [1]),              # one level for two modes
    lambda: coherent_state(1, 6, [0.1, 0.2]),   # two amplitudes for one mode
    lambda: coherent_state(2, 6, 0.1),
])
def test_initial_states_check_modes_and_levels(make):
    with pytest.raises(DimensionMismatch):
        make()


def _homodyne_factors(gamma, K, eta, dt, t_final, seed):
    spec = builtin_homodyne_thermal(gamma, K, eta)
    rep = rep_of_generator(compute_generator(spec))
    nc = compute_noise_couplings(spec)
    rec = sample_ostensible_record(spec, dt, t_final, seed=seed)
    table = BlockTable(rep, dt, rec.steps)
    ints = accumulate_integrals(table, nc, rec)
    return spec, rec, table, ints, EvolutionFactors.from_blocks(
        table.final_blocks(), ints)


def test_identity_factors_leave_state_unchanged():
    spec = builtin_homodyne_thermal(1.0, 0.4, 0.6)
    blocks = propagator_blocks(rep_of_generator(compute_generator(spec)), 0.0)
    factors = EvolutionFactors.from_blocks(blocks)
    rho0 = coherent_state(1, 12, 0.4)
    out = apply_evolution(rho0, factors)
    assert np.abs(out.rho - rho0.rho).max() < 1e-12


def test_pure_unravelling_preserves_purity():
    _, _, _, _, factors = _homodyne_factors(1.0, 0.0, 1.0, 1e-3, 1.0, seed=5)
    rho0 = coherent_state(1, 30, 0.7)
    evolved = apply_evolution(rho0, factors)
    normalized, _ = normalize_and_trace(evolved)
    assert abs(normalized.purity() - 1.0) < 1e-6
    evolved.check_hermitian()
    assert np.linalg.eigvalsh(normalized.rho).min() > -1e-6


def test_power_series_route_matches_superoperators():
    _, _, _, _, factors = _homodyne_factors(0.8, 0.4, 0.6, 1e-3, 0.3, seed=8)
    rho0 = vacuum_state(1, 14)
    superop = apply_evolution(rho0, factors)
    series = apply_evolution_power_series(rho0, factors)
    assert np.abs(superop.rho - series.rho).max() < 1e-8


def test_truncation_refinement_stability():
    spec, rec, table, ints, factors = _homodyne_factors(1.0, 0.3, 0.7, 1e-3,
                                                        0.5, seed=9)
    moments = []
    for D in (16, 32):
        rho0 = coherent_state(1, D, 0.5)
        evolved = apply_evolution(rho0, factors)
        normalized, _ = normalize_and_trace(evolved)
        _, _, nop = fock_operators(D)
        moments.append(float(np.real(expectation(normalized, nop))))
    assert abs(moments[0] - moments[1]) < 1e-6


def test_vacuum_weight_matches_oracle_trace():
    # vacuum is a dark state at zero temperature: its record weight is exactly
    # one, and the scalar bookkeeping (delta', sigma, h) must reproduce that
    from lintraj.oracle_sme import integrate_linear_sme

    spec, rec, table, ints, factors = _homodyne_factors(1.0, 0.0, 1.0, 1e-4,
                                                        0.5, seed=3)
    rho0 = vacuum_state(1, 10)
    _, trace = normalize_and_trace(apply_evolution(rho0, factors))
    weight = trace * np.exp(np.real(ints.h))
    oracle = integrate_linear_sme(spec, rho0, rec)
    otrace = float(np.real(np.trace(oracle.rho)))
    assert abs(weight - otrace) < 1e-4


def test_optomech_infinite_horizon_closed_form():
    from lintraj.povm import optomech_closed_form

    cf_inf = optomech_closed_form(1.0, 0.1, 0.0, 0.5, np.inf)
    cf_big = optomech_closed_form(1.0, 0.1, 0.0, 0.5, 1e3)
    assert abs(cf_inf.sigma_x2 - cf_big.sigma_x2) < 1e-12
    assert abs(cf_inf.sigma_p2 - cf_big.sigma_p2) < 1e-12


def test_normalize_and_trace_contract():
    rho0 = coherent_state(1, 8, 0.3)
    doubled = rho0.rho * 2.0
    from lintraj.state_engine import FockDensityMatrix

    state = FockDensityMatrix(n_modes=1, dim_per_mode=8, rho=doubled)
    normalized, trace = normalize_and_trace(state)
    assert abs(trace - 2.0) < 1e-12
    assert np.abs(normalized.rho - rho0.rho).max() < 1e-12
    with pytest.raises(ZeroTrace):
        normalize_and_trace(FockDensityMatrix(
            n_modes=1, dim_per_mode=8, rho=np.zeros((8, 8), complex)))


def test_expectation_validates_dimensions():
    state = vacuum_state(1, 6)
    with pytest.raises(DimensionMismatch):
        expectation(state, np.eye(5))


def test_two_mode_application_against_oracle():
    from lintraj.oracle_sme import integrate_linear_sme

    g1, g2 = 1.0, 0.7
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
    rec = sample_ostensible_record(spec, 1e-3, 0.4, seed=2)
    table = BlockTable(rep, 1e-3, rec.steps)
    ints = accumulate_integrals(table, nc, rec)
    factors = EvolutionFactors.from_blocks(table.final_blocks(), ints)
    rho0 = coherent_state(2, 8, [0.4, -0.3])
    evolved = apply_evolution(rho0, factors)
    normalized, trace = normalize_and_trace(evolved)
    oracle = integrate_linear_sme(spec, rho0, rec)
    onorm, otrace = normalize_and_trace(oracle)
    assert trace_distance(normalized.rho, onorm.rho) < 1e-3
    weight = trace * np.exp(np.real(ints.h))
    assert abs(weight - otrace) / otrace < 3e-2   # oracle trace error is O(dt)


def test_conditioned_moments_match_forward_filter():
    from lintraj.adjoint_kalman import forward_filter, kalman_matrices
    from lintraj.trajectory import sample_conditioned_record_gaussian

    gamma, K, eta = 1.0, 0.2, 0.8
    spec = builtin_homodyne_thermal(gamma, K, eta)
    alpha0 = 0.5
    dt, t_final, D = 2e-4, 0.4, 30
    rec = sample_conditioned_record_gaussian(
        spec, np.array([np.sqrt(2) * alpha0, 0.0]), 0.5 * np.eye(2),
        dt, t_final, seed=3)
    rep = rep_of_generator(compute_generator(spec))
    nc = compute_noise_couplings(spec)
    table = BlockTable(rep, dt, rec.steps)
    ints = accumulate_integrals(table, nc, rec)
    factors = EvolutionFactors.from_blocks(table.final_blocks(), ints)
    rho0 = coherent_state(1, D, alpha0)
    normalized, _ = normalize_and_trace(apply_evolution(rho0, factors))
    a, ad, _ = fock_operators(D)
    xop = (a + ad) / np.sqrt(2)
    pop = 1j * (ad - a) / np.sqrt(2)
    means, covs = forward_filter(kalman_matrices(spec),
                                 np.array([np.sqrt(2) * alpha0, 0.0]),
                                 0.5 * np.eye(2), rec)
    x_state = float(np.real(expectation(normalized, xop)))
    p_state = float(np.real(expectation(normalized, pop)))
    assert abs(x_state - means[-1, 0]) < 1e-3
    assert abs(p_state - means[-1, 1]) < 1e-3
    vxx_state = float(np.real(expectation(normalized, xop @ xop))) - x_state ** 2
    assert abs(vxx_state - covs[-1, 0, 0]) < 2e-3


@pytest.mark.parametrize("dim", [6, 12, 20])
def test_single_mode_exponentials_match_dense_expm(dim, rng):
    # each structured (K, M) pair against expm of the full D^2 x D^2 lift,
    # linear terms included
    for _ in range(3):
        factors = random_single_mode_factors(rng)
        dense = [expm(s.toarray()) for s in evolution_superoperators(factors, dim)]
        for (K, M), want in zip(single_mode_exponentials(factors, dim), dense):
            got = M.toarray() if K is None else np.kron(K.conj(), K) @ M.toarray()
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_engine_matches_dense_route(rng):
    for dim in (6, 12, 20):
        factors = random_single_mode_factors(rng)
        engine = EnsemblePropagator(factors, dim)
        rho0 = coherent_state(1, dim, 0.3 - 0.2j)
        for _ in range(3):   # records share the engine
            l_u, r_u = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
            record = replace(factors, l_under=l_u, r_under=r_u,
                             sigma=complex(0.1 * rng.normal(), 0.1 * rng.normal()))
            # random l_u, r_u and a complex sigma need not keep rho Hermitian,
            # so compare the unchecked vector
            got = engine.propagate_vec(rho0.rho.reshape(-1, order="F"),
                                       record.l_under, record.r_under,
                                       record.sigma)
            want = dense_evolution(rho0, record).reshape(-1, order="F")
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_single_mode_engine_exponentiates_only_small_matrices(monkeypatch):
    dim = 16
    sizes = []

    def recording_expm(m):
        sizes.append(m.shape[0])
        return expm(m)

    monkeypatch.setattr(state_engine, "expm", recording_expm)
    _, _, table, ints, factors = _homodyne_factors(1.0, 0.3, 0.7, 1e-3, 0.3,
                                                   seed=4)
    engine = EnsemblePropagator.from_blocks(table.final_blocks(), dim)
    engine.evolve_records(coherent_state(1, dim, 0.4), [ints])
    apply_evolution(coherent_state(1, dim, 0.4), factors)
    assert sizes and max(sizes) <= dim


def test_evolve_records_match_apply_evolution():
    _, _, table, ints, factors = _homodyne_factors(1.0, 0.3, 0.7, 1e-3, 0.4,
                                                   seed=6)
    rho0 = coherent_state(1, 14, 0.5)
    engine = EnsemblePropagator.from_blocks(table.final_blocks(), 14)
    [got] = engine.evolve_records(rho0, [ints])
    want = apply_evolution(rho0, factors)
    assert np.abs(got.rho - want.rho).max() < 1e-13
    with pytest.raises(DimensionMismatch):
        engine.evolve_records(coherent_state(1, 12, 0.5), [ints])


def test_shared_engine_is_thread_safe():
    # one engine, more worker threads than cores, a short switch interval:
    # every record must come out exactly as in a serial run
    import sys
    from concurrent.futures import ThreadPoolExecutor

    spec = builtin_homodyne_thermal(1.0, 0.3, 0.7)
    rep = rep_of_generator(compute_generator(spec))
    nc = compute_noise_couplings(spec)
    table = BlockTable(rep, 1e-3, 200)
    engine = EnsemblePropagator.from_blocks(table.final_blocks(), 14)
    rho0 = coherent_state(1, 14, 0.4)
    records = [accumulate_integrals(table, nc, sample_ostensible_record(
        spec, 1e-3, 0.2, seed=k)) for k in range(12)]
    def evolve(ints):
        return engine.evolve_records(rho0, [ints])[0].rho

    serial = [evolve(ints) for ints in records]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(evolve, ints) for ints in records]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def test_lowering_exp_is_exact_on_the_truncation():
    a, _, _ = fock_operators(9)
    for c in (0.0, 0.7 - 1.3j, 2.5):
        got = state_engine.lowering_exp(c, 9)
        assert np.abs(got - expm(c * a)).max() <= 1e-13 * np.abs(got).max()


def test_two_mode_linear_factors_match_full_lifts(rng):
    # N = 2: per-record K rho K^dag linear factors around the shared quadratic
    # lifts, against expm_multiply of each full species lift (linear included)
    dim = 5
    for _ in range(2):
        spec = random_spec(2, 2, rng)
        blocks = propagator_blocks(rep_of_generator(compute_generator(spec)), 0.4)
        factors = replace(
            EvolutionFactors.from_blocks(blocks),
            l_under=rng.normal(size=2) + 1j * rng.normal(size=2),
            r_under=rng.normal(size=2) + 1j * rng.normal(size=2),
            sigma=complex(0.1 * rng.normal(), 0.1 * rng.normal()))
        v0 = coherent_state(2, dim, [0.3 - 0.2j, -0.1j]).rho.reshape(-1, order="F")
        want = v0.astype(complex)
        for s in evolution_superoperators(factors, dim):
            want = expm_multiply(s.tocsc(), want)
        want = want * np.exp(factors.delta_prime + factors.sigma)
        engine = EnsemblePropagator(factors, dim)
        got = engine.propagate_vec(v0, factors.l_under, factors.r_under,
                                   factors.sigma)
        assert got.shape == v0.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_non_finite_state_is_named():
    # a scalar exponent that overflows exp must not reach the Hermiticity and
    # tail checks, which NaN passes
    factors = replace(random_single_mode_factors(np.random.default_rng(7)),
                      sigma=complex(800.0, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(MatrixExpFailure, match=r"^record 0: "):
            apply_evolution(vacuum_state(1, 8), factors)


# A cool homodyne mode (K = 0.02): all three quadratic species, sandwiches
# included, are nonzero, and the states of seeds 0..6 stay inside a 6-level
# truncation (other seeds may need 8 levels).
_COOL_DT, _COOL_STEPS = 1e-3, 300


@lru_cache(maxsize=1)
def _cool_homodyne_pipeline():
    spec = builtin_homodyne_thermal(1.0, 0.02, 0.8)
    table = BlockTable(rep_of_generator(compute_generator(spec)), _COOL_DT,
                       _COOL_STEPS)
    return spec, table, compute_noise_couplings(spec)


def _cool_homodyne_records(seeds):
    spec, table, nc = _cool_homodyne_pipeline()
    return table.final_blocks(), [accumulate_integrals(
        table, nc, sample_ostensible_record(spec, _COOL_DT,
                                            _COOL_DT * _COOL_STEPS, seed=s))
        for s in seeds]


def _relative_gap(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("n_records", [1, 2, 7])
@pytest.mark.parametrize("dim", [6, 12, 20])
def test_evolve_records_match_dense_oracle(dim, n_records):
    blocks, records = _cool_homodyne_records(range(n_records))
    rho0 = coherent_state(1, dim, 0.2 - 0.1j)
    states = EnsemblePropagator.from_blocks(blocks, dim).evolve_records(
        rho0, records)
    assert len(states) == n_records
    for state, ints in zip(states, records):
        want = dense_evolution(rho0, EvolutionFactors.from_blocks(blocks, ints))
        assert _relative_gap(state.rho, want) <= 1e-12


def test_two_mode_evolve_records_match_dense_oracle():
    # two damped homodyne modes with a quadrature (beam-splitter) coupling
    C = np.zeros((2, 4), dtype=complex)
    C[0, :2] = np.sqrt(0.5) * np.array([1, 1j])
    C[1, 2:] = np.sqrt(0.35) * np.array([1, 1j])
    M = np.zeros((2, 4), dtype=complex)
    M[0, 0] = M[1, 1] = 1.0
    G = np.zeros((4, 4))
    G[0, 2] = G[2, 0] = G[1, 3] = G[3, 1] = 0.2
    spec = validate_spec(SystemSpec(n_modes=2, n_channels=2, G=G, C=C, M=M))
    table = BlockTable(rep_of_generator(compute_generator(spec)), 1e-3, 300)
    nc = compute_noise_couplings(spec)
    records = [accumulate_integrals(table, nc, sample_ostensible_record(
        spec, 1e-3, 0.3, seed=k)) for k in range(3)]
    blocks = table.final_blocks()
    rho0 = coherent_state(2, 4, [0.05, -0.04j])
    states = EnsemblePropagator.from_blocks(blocks, 4).evolve_records(rho0,
                                                                     records)
    for state, ints in zip(states, records):
        want = dense_evolution(rho0, EvolutionFactors.from_blocks(blocks, ints))
        assert _relative_gap(state.rho, want) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from([8, 12]),
       seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=8))
def test_batched_records_equal_single_records(dim, seeds):
    blocks, records = _cool_homodyne_records(seeds)
    engine = EnsemblePropagator.from_blocks(blocks, dim)
    rho0 = coherent_state(1, dim, 0.2 - 0.1j)
    batched = engine.evolve_records(rho0, records)
    for state, ints in zip(batched, records):
        [single] = engine.evolve_records(rho0, [ints])
        assert _relative_gap(state.rho, single.rho) <= 1e-13


@pytest.mark.parametrize("n_modes", [1, 2])
def test_stacked_normal_ordering_equals_rows(n_modes, rng):
    spec = random_spec(n_modes, 2, rng)
    blocks = propagator_blocks(rep_of_generator(compute_generator(spec)), 0.4)
    l_p, r_p = (rng.normal(size=(2, 5, 2 * n_modes))
                + 1j * rng.normal(size=(2, 5, 2 * n_modes)))
    l_u, r_u = normal_order_linear(blocks, l_p, r_p)
    rows = [normal_order_linear(blocks, l, r) for l, r in zip(l_p, r_p)]
    pairs = ((l_u, [row[0] for row in rows]), (r_u, [row[1] for row in rows]),
             (reordering_scalar(blocks, r_p),
              [reordering_scalar(blocks, r) for r in r_p]))
    for got, want in pairs:
        want = np.array(want)
        assert got.shape == want.shape
        assert _relative_gap(got, want) <= 1e-15


def test_single_mode_engine_build_forms_no_lift(monkeypatch):
    dim = 12
    shapes = []

    def no_lifts(*args, **kwargs):
        raise AssertionError("the one-mode engine built a D^2 x D^2 lift")

    def recording_expm(m):
        shapes.append(m.shape)
        return expm(m)

    monkeypatch.setattr(state_engine, "evolution_superoperators", no_lifts)
    monkeypatch.setattr(state_engine, "expm", recording_expm)
    blocks, records = _cool_homodyne_records(range(3))
    engine = EnsemblePropagator.from_blocks(blocks, dim)
    assert shapes and all(len(s) == 2 and max(s) <= dim for s in shapes)
    engine.evolve_records(coherent_state(1, dim, 0.2), records)


def test_evolve_records_edge_cases_and_failing_record():
    blocks, records = _cool_homodyne_records(range(5))
    engine = EnsemblePropagator.from_blocks(blocks, 8)
    rho0 = coherent_state(1, 8, 0.2)
    assert engine.evolve_records(rho0, []) == []
    with pytest.raises(DimensionMismatch):
        engine.evolve_records(coherent_state(1, 6, 0.2), records)
    records[3] = overflowing_integrals(blocks, records[3])
    # no np.errstate here: an escaping RuntimeWarning fails the test
    with pytest.raises(MatrixExpFailure, match=r"^record 3: "):
        engine.evolve_records(rho0, records)
