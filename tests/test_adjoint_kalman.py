import tracemalloc

import numpy as np
import pytest
from conftest import (
    backward_covariance,
    euler_backward,
    inverse_backward_sweep,
    mp_backward_sweep,
    random_spec,
)
from scipy.linalg import expm

from lintraj.adjoint_kalman import (
    _riccati_flow_matrix,
    backward_sweep,
    crosscheck_against_povm,
    forward_filter,
    integrate_backward,
    kalman_matrices,
)
from lintraj.errors import (
    CrossCheckFailure,
    DimensionMismatch,
    FilterDivergence,
    RiccatiBlowup,
)
from lintraj.lie_rep import povm_blocks, rep_of_generator
from lintraj.parameterization import compute_generator, compute_noise_couplings
from lintraj.povm import effect_from_blocks, optomech_closed_form
from lintraj.system import (
    SystemSpec,
    builtin_homodyne_thermal,
    builtin_optomech_squeezing,
    validate_spec,
)
from lintraj.trajectory import (
    BlockTable,
    MeasurementRecord,
    accumulate_integrals,
    sample_conditioned_record_gaussian,
    sample_ostensible_record,
    stochastic_d,
)

OPTOMECH = (1.0, 1.0, 0.4, 0.2, 0.3)       # mu, eta, gamma, K_th, chi


def test_homodyne_kalman_matrices():
    gamma, K, eta = 1.0, 0.5, 0.8
    mats = kalman_matrices(builtin_homodyne_thermal(gamma, K, eta))
    assert np.allclose(mats.A, -gamma / 2 * np.eye(2), atol=1e-12)
    assert np.allclose(mats.E, gamma * (1 + 2 * K) / 2 * np.eye(2), atol=1e-12)
    b = np.sqrt(gamma * eta / (2 * (1 + 2 * K)))
    assert np.allclose(mats.B[0], [b, 0.0], atol=1e-12)
    assert np.allclose(mats.S[0], [b * (1 + 2 * K), 0.0], atol=1e-12)
    assert np.abs(mats.B[1:]).max() < 1e-14


def test_unmonitored_spec_has_no_innovation_terms(rng):
    C = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    spec = validate_spec(SystemSpec(n_modes=2, n_channels=2,
                                    G=np.zeros((4, 4)), C=C,
                                    M=np.zeros((2, 4))))
    mats = kalman_matrices(spec)
    assert np.abs(mats.B).max() == 0.0
    assert np.abs(mats.S).max() == 0.0


def test_optomech_drift_contains_squeezing():
    mu, eta, gamma, K_th, chi = 1.0, 1.0, 0.1, 0.0, 0.5
    mats = kalman_matrices(builtin_optomech_squeezing(mu, eta, gamma, K_th, chi))
    assert abs(mats.A[0, 0] + (gamma + chi) / 2) < 1e-12
    assert abs(mats.A[1, 1] - (chi - gamma) / 2) < 1e-12


def test_backward_vxx_closed_form():
    gamma, K, eta = 1.0, 0.5, 0.8
    mats = kalman_matrices(builtin_homodyne_thermal(gamma, K, eta))
    for span in (0.3, 1.0, 2.5):
        V = backward_covariance(mats, span)
        want = 0.5 * (1 + 2 * K) * (1 / (eta * (1 - np.exp(-gamma * span))) - 1)
        assert abs(V[0, 0] - want) < 1e-10
        assert np.isinf(V[1, 1])
        assert V[0, 1] == 0.0 and V[1, 0] == 0.0


def test_backward_mean_closed_form():
    gamma, K, eta = 1.0, 0.4, 0.7
    spec = builtin_homodyne_thermal(gamma, K, eta)
    mats = kalman_matrices(spec)
    rec = sample_ostensible_record(spec, 1e-3, 1.2, seed=3)
    moments = integrate_backward(mats, rec)
    taus = rec.dt * np.arange(1, rec.steps + 1)
    integral = np.sum(np.exp(-gamma * taus / 2) * rec.y[:, 0]) * rec.dt
    want = np.sqrt(gamma * (1 + 2 * K) / (2 * eta)) \
        / (1 - np.exp(-gamma * rec.t_final)) * integral
    assert abs(moments.x[0] - want) < 1e-10
    assert np.isinf(moments.x[1])


def test_backward_covariance_is_record_independent():
    spec = builtin_homodyne_thermal(1.0, 0.3, 0.9)
    mats = kalman_matrices(spec)
    rec1 = sample_ostensible_record(spec, 1e-3, 0.8, seed=1)
    rec2 = sample_ostensible_record(spec, 1e-3, 0.8, seed=2)
    m1 = euler_backward(mats, rec1)
    m2 = euler_backward(mats, rec2)
    assert np.abs(m1.Lambda - m2.Lambda).max() < 1e-12


def test_information_monotonicity():
    spec = builtin_homodyne_thermal(1.0, 0.6, 0.7)
    mats = kalman_matrices(spec)
    spans = np.linspace(0.05, 2.0, 15)
    last = -np.inf
    for span in spans:
        n2 = 2
        from lintraj.adjoint_kalman import _riccati_flow_matrix
        from scipy.linalg import expm

        prop = expm(_riccati_flow_matrix(mats) * span)
        lam = prop[n2:, :n2] @ np.linalg.inv(prop[:n2, :n2])
        lam_xx = lam[0, 0]
        assert lam_xx >= last - 1e-12
        last = lam_xx


def test_euler_backward_converges_to_exact_flow():
    spec = builtin_homodyne_thermal(1.0, 0.4, 0.7)
    mats = kalman_matrices(spec)
    t_final = 0.8
    fine = 2 ** 12
    rng = np.random.default_rng(7)
    dw = rng.normal(size=fine) * np.sqrt(t_final / fine)
    errs = []
    for agg in (16, 4):
        steps = fine // agg
        dt = t_final / steps
        y = np.zeros((steps, 4))
        y[:, 0] = dw.reshape(steps, agg).sum(axis=1) / dt
        rec = MeasurementRecord(dt=dt, y=y)
        exact = integrate_backward(mats, rec)
        euler = euler_backward(mats, rec)
        errs.append(max(abs(euler.x[0] - exact.x[0]),
                        abs(euler.Lambda[0, 0] - exact.Lambda[0, 0])))
    order = np.log(errs[0] / errs[1]) / np.log(4.0)
    assert order > 0.9


def test_backward_trajectory_endpoint_matches_full_sweep():
    from lintraj.adjoint_kalman import backward_moment_trajectory

    spec = builtin_homodyne_thermal(1.0, 0.4, 0.7)
    mats = kalman_matrices(spec)
    rec = sample_ostensible_record(spec, 1e-3, 0.9, seed=13)
    moments = integrate_backward(mats, rec)
    taus, xs, vs = backward_moment_trajectory(mats, rec, n_samples=12)
    assert abs(taus[0] - rec.t_final) < 1e-12
    assert abs(taus[-1]) < 1e-12
    assert abs(xs[-1][0] - moments.x[0]) < 1e-10
    assert abs(vs[-1][0, 0] - moments.V[0, 0]) < 1e-10
    # variance shrinks monotonically as more record is folded in
    finite = vs[1:, 0, 0]
    assert (np.diff(finite) <= 1e-10).all()


def test_forward_vacuum_is_riccati_fixed_point():
    spec = builtin_homodyne_thermal(1.0, 0.0, 1.0)
    mats = kalman_matrices(spec)
    rec = sample_ostensible_record(spec, 1e-3, 0.5, seed=4)
    means, covs = forward_filter(mats, np.zeros(2), 0.5 * np.eye(2), rec)
    assert np.abs(covs - 0.5 * np.eye(2)).max() < 1e-12
    assert np.abs(means).max() < 1e-12


def test_forward_covariance_record_independent():
    spec = builtin_homodyne_thermal(1.0, 0.4, 0.6)
    mats = kalman_matrices(spec)
    rec1 = sample_ostensible_record(spec, 1e-3, 0.5, seed=5)
    rec2 = sample_ostensible_record(spec, 1e-3, 0.5, seed=6)
    _, c1 = forward_filter(mats, np.zeros(2), 0.5 * np.eye(2), rec1)
    _, c2 = forward_filter(mats, np.zeros(2), 0.5 * np.eye(2), rec2)
    assert np.abs(c1 - c2).max() < 1e-14


def test_forward_unmonitored_follows_lyapunov_flow():
    spec = builtin_homodyne_thermal(1.0, 0.5, 0.0)
    mats = kalman_matrices(spec)
    steps = 400
    rec = MeasurementRecord(dt=1e-3, y=np.zeros((steps, 4)))
    _, covs = forward_filter(mats, np.zeros(2), 0.5 * np.eye(2), rec)
    V = 0.5 * np.eye(2)
    for _ in range(steps):
        V = V + 1e-3 * (mats.A @ V + V @ mats.A.T + mats.E)
    assert np.abs(covs[-1] - V).max() < 1e-12


def _homodyne_effect_and_moments(gamma, K, eta, t, seed):
    spec = builtin_homodyne_thermal(gamma, K, eta)
    rep = rep_of_generator(compute_generator(spec))
    nc = compute_noise_couplings(spec)
    rec = sample_ostensible_record(spec, 1e-3, t, seed=seed)
    table = BlockTable(rep, 1e-3, rec.steps)
    ints = accumulate_integrals(table, nc, rec)
    lpp = povm_blocks(table.final_blocks())
    d = stochastic_d(ints, lpp)
    effect = effect_from_blocks(lpp, d)
    moments = integrate_backward(kalman_matrices(spec), rec)
    return lpp, d, effect, moments


def test_crosscheck_homodyne_identities():
    lpp, d, effect, moments = _homodyne_effect_and_moments(1.0, 0.5, 0.8, 1.1,
                                                           seed=9)
    report = crosscheck_against_povm(effect, moments)
    assert report["mean_residual"] < 1e-8
    assert report["variance_residual"] < 1e-8
    lhs = 2 * np.sqrt(2) * moments.x[0]
    rhs = float(np.real(-d[0] / lpp[0, 0]))
    assert abs(lhs - rhs) < 1e-8


def test_crosscheck_zero_record_trivial():
    spec = builtin_homodyne_thermal(1.0, 0.3, 0.9)
    rep = rep_of_generator(compute_generator(spec))
    nc = compute_noise_couplings(spec)
    steps = 700
    rec = MeasurementRecord(dt=1e-3, y=np.zeros((steps, 4)))
    table = BlockTable(rep, 1e-3, steps)
    ints = accumulate_integrals(table, nc, rec)
    lpp = povm_blocks(table.final_blocks())
    d = stochastic_d(ints, lpp)
    assert np.abs(d).max() == 0.0
    effect = effect_from_blocks(lpp, d)
    moments = integrate_backward(kalman_matrices(spec), rec)
    assert abs(moments.x[0]) < 1e-12
    crosscheck_against_povm(effect, moments)


def test_crosscheck_detects_mismatch():
    lpp, d, effect, moments = _homodyne_effect_and_moments(1.0, 0.5, 0.8, 1.1,
                                                           seed=9)
    wrong = effect_from_blocks(np.block([[effect.Lpp, effect.Lpp_breve],
                                         [effect.Lpp_breve, effect.Lpp.conj()]]),
                               effect.d + 0.5)
    with pytest.raises(CrossCheckFailure):
        crosscheck_against_povm(wrong, moments)


def test_crosscheck_optomech_two_route_variances():
    mu, eta, gamma, K_th, chi = 1.0, 1.0, 0.1, 0.0, 0.5
    spec = builtin_optomech_squeezing(mu, eta, gamma, K_th, chi)
    mats = kalman_matrices(spec)
    span = 50.0
    V = backward_covariance(mats, span)
    cf = optomech_closed_form(mu * eta, gamma, K_th, chi, span)
    assert abs(V[0, 0] - (cf.sigma_x2 - 0.5)) < 1e-10
    assert abs(V[1, 1] - (cf.sigma_p2 - 0.5)) < 1e-10


def _flow_specs(rng):
    return {"optomech": builtin_optomech_squeezing(*OPTOMECH),
            "random N=1": random_spec(1, 2, rng),
            "random N=2": random_spec(2, 2, rng)}


def test_riccati_flow_keeps_xy_lagrangian(rng):
    # X^T Y = Y^T X along the flow is what lets backward_sweep skip X^{-1}
    for name, spec in _flow_specs(rng).items():
        mats = kalman_matrices(spec)
        n2 = 2 * mats.n_modes
        step = expm(_riccati_flow_matrix(mats) * 1e-3)
        xy = np.vstack([np.eye(n2), np.zeros((n2, n2))])
        for _ in range(5000):                  # 5 time units
            xy = step @ xy
            xty = xy[:n2].T @ xy[n2:]
            assert (np.abs(xty - xty.T).max()
                    <= 1e-12 * np.abs(xty).max()), name


def _assert_within(xs, z, xs_ref, z_ref, tol=1e-12):
    """z, and x at every sample, within ``tol`` relative of the reference."""
    assert np.abs(z - z_ref).max() <= tol * np.abs(z_ref).max()
    assert xs.shape == xs_ref.shape
    for x, x_ref in zip(xs, xs_ref):
        finite = np.isfinite(x_ref)
        assert (np.isfinite(x) == finite).all()
        assert (np.abs(x[finite] - x_ref[finite]).max(initial=0.0)
                <= tol * np.abs(x_ref[finite]).max(initial=0.0))


def _assert_sweep_matches_inverse_oracle(mats, rec, oracle=True, n_samples=25):
    """The sweep against the 40-digit arbiter and, where ``oracle`` is set,
    against ``inverse_backward_sweep``, which must then itself sit within
    the bound of the arbiter."""
    _, xs, _, moments = backward_sweep(mats, rec, n_samples)
    xs_mp, z_mp = mp_backward_sweep(mats, rec, n_samples)
    _assert_within(xs, moments.z, xs_mp, z_mp)
    if oracle:
        xs_ref, z_ref = inverse_backward_sweep(mats, rec, n_samples)
        _assert_within(xs_ref, z_ref, xs_mp, z_mp)
        _assert_within(xs, moments.z, xs_ref, z_ref)


def test_backward_sweep_matches_inverse_oracle_long_homodyne():
    spec = builtin_homodyne_thermal(1.0, 0.3, 0.7)
    rec = sample_ostensible_record(spec, 1e-4, 5.0, seed=11)   # 5e4 steps
    _assert_sweep_matches_inverse_oracle(kalman_matrices(spec), rec)


def test_backward_sweep_matches_inverse_oracle(rng):
    for name, spec in _flow_specs(rng).items():
        rec = sample_ostensible_record(spec, 1e-3, 2.0, rng=rng)
        # on the two-mode record cond(Lambda) reaches ~6e3 at the first
        # sample, where the per-step inverse oracle is 1.3e-12 off the
        # arbiter; there the arbiter alone decides
        _assert_sweep_matches_inverse_oracle(kalman_matrices(spec), rec,
                                             oracle=name != "random N=2")


@pytest.mark.parametrize("steps", [1, 2, 15, 16, 17, 224, 225, 226])
def test_sweep_segment_edges_match_inverse_oracle(steps):
    # steps = C^2 - 1, C^2, C^2 + 1 for C = 4 and 15: the table's last block
    # of ceil(sqrt(steps)) steps is one short, full, or two steps long, and
    # the samples fall inside blocks and on block ends
    spec = builtin_homodyne_thermal(1.0, 0.3, 0.7)
    mats = kalman_matrices(spec)
    rec = sample_ostensible_record(spec, 1e-3, steps * 1e-3, seed=5)
    assert rec.steps == steps
    for n_samples in (0, 1, 2, 25, steps + 3):
        taus, xs, _, moments = backward_sweep(mats, rec, n_samples)
        every = max(1, steps // max(1, n_samples - 1))
        k_back = [0] + [k for k in range(1, steps + 1)
                        if k % every == 0 or k == steps]
        assert np.array_equal(taus, rec.t_final - np.array(k_back) * rec.dt)
        xs_ref, z_ref = inverse_backward_sweep(mats, rec, n_samples)
        _assert_within(xs, moments.z, xs_ref, z_ref)


def test_backward_sweep_of_a_long_record_holds_no_per_step_array():
    # 1e6 steps: 1001 powers and 1001 bases of the 4 x 4 flow, ~0.3 MB,
    # and the record is folded a block at a time, so no array spans it
    spec = builtin_homodyne_thermal(1.0, 0.2, 0.8)
    rec = sample_ostensible_record(spec, 1e-5, 10.0, seed=0)
    tracemalloc.start()
    try:
        moments = backward_sweep(kalman_matrices(spec), rec, 50)[3]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4e6
    table = BlockTable(rep_of_generator(compute_generator(spec)), 1e-5,
                       rec.steps)
    ints = accumulate_integrals(table, compute_noise_couplings(spec), rec)
    lpp = povm_blocks(table.final_blocks())
    crosscheck_against_povm(effect_from_blocks(lpp, stochastic_d(ints, lpp)),
                            moments)


def test_backward_sweep_rejects_wrong_column_count():
    spec = builtin_homodyne_thermal(1.0, 0.3, 0.7)           # 2L = 4
    rec = sample_ostensible_record(spec, 1e-3, 0.1, seed=1)
    bad = MeasurementRecord(dt=rec.dt, y=rec.y[:, :3])
    with pytest.raises(DimensionMismatch, match="3 current columns"):
        backward_sweep(kalman_matrices(spec), bad, 5)


def test_backward_sweep_rejects_non_finite_record():
    spec = builtin_homodyne_thermal(1.0, 0.3, 0.7)
    rec = sample_ostensible_record(spec, 1e-3, 0.1, seed=1)
    for value in (np.nan, np.inf):
        y = rec.y.copy()
        y[40, 0] = value
        bad = MeasurementRecord(dt=rec.dt, y=y)
        with pytest.raises(ValueError, match="non-finite entries"):
            backward_sweep(kalman_matrices(spec), bad, 5)


def test_forward_flow_raises_riccati_blowup():
    spec = builtin_homodyne_thermal(1.0, 0.3, 0.7)
    mats = kalman_matrices(spec)
    cov = 1e200 * np.eye(2)
    rec = sample_ostensible_record(spec, 1e-3, 0.1, seed=1)
    with pytest.raises(RiccatiBlowup):
        forward_filter(mats, np.zeros(2), cov, rec)
    with pytest.raises(RiccatiBlowup):
        sample_conditioned_record_gaussian(spec, np.zeros(2), cov, 1e-3, 0.1,
                                           n_traj=3)


def test_forward_flow_raises_filter_divergence():
    # one Euler step this long drives V_xx = 10 below zero
    spec = builtin_homodyne_thermal(1.0, 0.3, 0.7)
    mats = kalman_matrices(spec)
    cov = 10.0 * np.eye(2)
    rec = sample_ostensible_record(spec, 0.5, 1.0, seed=1)
    with pytest.raises(FilterDivergence):
        forward_filter(mats, np.zeros(2), cov, rec)
    with pytest.raises(FilterDivergence):
        sample_conditioned_record_gaussian(spec, np.zeros(2), cov, 0.5, 1.0)
