import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import (
    block_table_residual,
    einsum_accumulation,
    loop_conditioned_records,
    random_spec,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from lintraj import trajectory
from lintraj.errors import ConfigError
from lintraj.lie_rep import rep_of_generator
from lintraj.parameterization import compute_generator, compute_noise_couplings
from lintraj.system import builtin_homodyne_thermal, builtin_optomech_squeezing
from lintraj.trajectory import (
    BlockTable,
    MeasurementRecord,
    accumulate_integrals,
    accumulate_integrals_ensemble,
    record_from_csv,
    record_to_csv,
    sample_conditioned_record_gaussian,
    sample_ostensible_record,
    stochastic_d,
)


@pytest.fixture
def homodyne_pipeline():
    spec = builtin_homodyne_thermal(1.0, 0.6, 0.7)
    gen = compute_generator(spec)
    rep = rep_of_generator(gen)
    nc = compute_noise_couplings(spec)
    return spec, rep, nc


def test_ostensible_record_deterministic(homodyne_pipeline):
    spec, _, _ = homodyne_pipeline
    a = sample_ostensible_record(spec, 1e-3, 0.5, seed=7)
    b = sample_ostensible_record(spec, 1e-3, 0.5, seed=7)
    assert np.array_equal(a.y, b.y)


def test_ostensible_record_unmonitored_columns_zero(homodyne_pipeline):
    spec, _, _ = homodyne_pipeline
    rec = sample_ostensible_record(spec, 1e-3, 0.5, seed=1)
    assert np.abs(rec.y[:, 1:]).max() == 0.0
    assert np.abs(rec.y[:, 0]).max() > 0.0


def test_ostensible_record_variance(homodyne_pipeline):
    spec, _, _ = homodyne_pipeline
    dt = 1e-3
    rec = sample_ostensible_record(spec, dt, 1000 * dt, seed=2)
    samples = (rec.y[:, 0] * dt).ravel()
    # widen with many records for a million samples
    more = [sample_ostensible_record(spec, dt, 1000 * dt, seed=100 + k).y[:, 0] * dt
            for k in range(999)]
    samples = np.concatenate([samples] + more)
    n = samples.size
    var = samples.var()
    se = dt * np.sqrt(2.0 / n)   # sample-variance standard error for Gaussians
    assert abs(var - dt) < 3 * se


def test_zero_record_gives_zero_integrals(homodyne_pipeline):
    spec, rep, nc = homodyne_pipeline
    steps = 200
    rec = MeasurementRecord(dt=1e-3, steps=steps, y=np.zeros((steps, 4)))
    table = BlockTable(rep, 1e-3, steps)
    ints = accumulate_integrals(table, nc, rec)
    assert np.abs(ints.l_prime).max() == 0.0
    assert np.abs(ints.r_prime).max() == 0.0
    assert ints.h == 0.0
    d = stochastic_d(ints, np.zeros((2, 2)))
    assert np.abs(d).max() == 0.0


def test_integrals_pairing_invariant(homodyne_pipeline):
    spec, rep, nc = homodyne_pipeline
    rec = sample_ostensible_record(spec, 1e-3, 0.7, seed=3)
    table = BlockTable(rep, 1e-3, rec.steps)
    ints = accumulate_integrals(table, nc, rec)
    ints.check_pairing(1e-12)


def test_zero_temperature_kills_r_prime():
    spec = builtin_homodyne_thermal(1.0, 0.0, 0.8)
    rep = rep_of_generator(compute_generator(spec))
    nc = compute_noise_couplings(spec)
    rec = sample_ostensible_record(spec, 1e-3, 0.6, seed=4)
    table = BlockTable(rep, 1e-3, rec.steps)
    ints = accumulate_integrals(table, nc, rec)
    assert np.abs(ints.r_prime).max() < 1e-14
    assert abs(ints.h) < 1e-14


def test_constant_record_exponential_kernel():
    gamma, eta = 1.0, 1.0
    spec = builtin_homodyne_thermal(gamma, 0.0, eta)
    rep = rep_of_generator(compute_generator(spec))
    nc = compute_noise_couplings(spec)
    dt, t_final, level = 1e-4, 1.0, 0.9
    steps = int(t_final / dt)
    y = np.zeros((steps, 4))
    y[:, 0] = level
    rec = MeasurementRecord(dt=dt, steps=steps, y=y)
    table = BlockTable(rep, dt, steps)
    ints = accumulate_integrals(table, nc, rec)
    taus = dt * np.arange(1, steps + 1)
    discrete = np.sqrt(gamma) * level * np.sum(np.exp(-gamma * taus / 2)) * dt
    assert abs(ints.l_prime[0] - discrete) < 1e-12
    continuum = np.sqrt(gamma) * level * (2 / gamma) * (1 - np.exp(-gamma * t_final / 2))
    assert abs(ints.l_prime[0] - continuum) < 5 * gamma * dt


def test_refinement_convergence_of_integrals():
    spec = builtin_homodyne_thermal(1.0, 0.5, 0.9)
    rep = rep_of_generator(compute_generator(spec))
    nc = compute_noise_couplings(spec)
    t_final = 0.5
    dt_f = t_final / 2 ** 12
    rng = np.random.default_rng(10)
    dw = rng.normal(size=2 ** 12) * np.sqrt(dt_f)

    def integrals_at(agg):
        dt = dt_f * agg
        steps = 2 ** 12 // agg
        y = np.zeros((steps, 4))
        y[:, 0] = dw.reshape(steps, agg).sum(axis=1) / dt
        rec = MeasurementRecord(dt=dt, steps=steps, y=y)
        table = BlockTable(rep, dt, steps)
        return accumulate_integrals(table, nc, rec)

    ref = integrals_at(1)
    errs = []
    for agg in (16, 4):
        got = integrals_at(agg)
        errs.append(max(np.abs(got.l_prime - ref.l_prime).max(),
                        np.abs(got.r_prime - ref.r_prime).max()))
    # halving dt by 4 should reduce the error by at least 4**0.5 = 2
    assert errs[1] < errs[0] / 1.8


def test_ensemble_accumulation_matches_single(homodyne_pipeline):
    spec, rep, nc = homodyne_pipeline
    table = BlockTable(rep, 1e-3, 300)
    recs = [sample_ostensible_record(spec, 1e-3, 0.3, seed=50 + k)
            for k in range(4)]
    y = np.stack([r.y for r in recs])
    l_e, r_e, h_e = accumulate_integrals_ensemble(table, nc, y)
    for k, rec in enumerate(recs):
        single = accumulate_integrals(table, nc, rec)
        assert np.abs(l_e[k] - single.l_prime).max() < 1e-13
        assert np.abs(r_e[k] - single.r_prime).max() < 1e-13
        assert abs(h_e[k] - single.h) < 1e-13


def _optomech():
    return builtin_optomech_squeezing(mu=1.0, eta=1.0, gamma=0.4, K_th=0.2,
                                      chi=0.3)


def _relative_gap(got, want):
    return max(np.abs(g - w).max() / np.abs(w).max() for g, w in zip(got, want))


@pytest.mark.parametrize("n_traj", [1, 7])
@pytest.mark.parametrize("steps_case", ["one", "chunk-1", "chunk", "chunk+1",
                                        "3chunk+5"])
@pytest.mark.parametrize("system", ["homodyne", "optomech", "random-n2"])
def test_streamed_accumulation_matches_einsum_oracle(monkeypatch, system,
                                                     steps_case, n_traj):
    monkeypatch.setattr(trajectory, "_STREAM_CHUNK", 64)
    span = 64 // n_traj        # steps per chunk
    steps = {"one": 1, "chunk-1": span - 1, "chunk": span, "chunk+1": span + 1,
             "3chunk+5": 3 * span + 5}[steps_case]
    rng = np.random.default_rng(31)
    spec = {"homodyne": lambda: builtin_homodyne_thermal(1.0, 0.6, 0.7),
            "optomech": _optomech,
            "random-n2": lambda: random_spec(2, 2, rng)}[system]()
    nc = compute_noise_couplings(spec)
    table = BlockTable(rep_of_generator(compute_generator(spec)), 1e-3, steps)
    # every column is nonzero, also the ones no coupling row reads (4 of 6 on
    # optomech), so dropping those columns must be exact to pass
    y = rng.normal(size=(n_traj, steps, 2 * spec.n_channels)) / np.sqrt(1e-3)
    if system == "optomech":
        coupled = np.any(nc.W_l != 0, axis=1) | np.any(nc.W_r != 0, axis=1)
        assert (~coupled).sum() == 4
    got = accumulate_integrals_ensemble(table, nc, y)
    assert _relative_gap(got, einsum_accumulation(table, nc, y)) <= 1e-12


def test_accumulation_memory_stays_within_chunk_budget(homodyne_pipeline):
    _, rep, nc = homodyne_pipeline
    n_traj, steps = 200, 4000
    table = BlockTable(rep, 1e-3, steps)
    y = np.random.default_rng(5).normal(size=(n_traj, steps, 4))
    # each (record, step) pair of a chunk holds well under 256 bytes of
    # temporaries at N = 1: the coupled record columns, the complex
    # increments [dl' | dr'], the running sum and one scaled copy
    budget_bytes = trajectory._STREAM_CHUNK * 256
    tracemalloc.start()
    try:
        accumulate_integrals_ensemble(table, nc, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < y.nbytes + budget_bytes


@settings(max_examples=30, deadline=None)
@given(n_traj=st.integers(1, 8), steps=st.integers(1, 120),
       chunk=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_ensemble_equals_single_records(n_traj, steps, chunk, seed):
    spec = _optomech()
    nc = compute_noise_couplings(spec)
    table = BlockTable(rep_of_generator(compute_generator(spec)), 1e-3, steps)
    y = np.random.default_rng(seed).normal(size=(n_traj, steps, 6)) / np.sqrt(1e-3)
    # a small chunk budget splits the ensemble's steps differently from the
    # single records', which each fit one chunk
    with mock.patch.object(trajectory, "_STREAM_CHUNK", chunk):
        ens = accumulate_integrals_ensemble(table, nc, y)
    singles = [accumulate_integrals(table, nc,
                                    MeasurementRecord(dt=1e-3, steps=steps, y=row))
               for row in y]
    want = (np.array([s.l_prime for s in singles]),
            np.array([s.r_prime for s in singles]),
            np.array([s.h for s in singles]))
    assert _relative_gap(ens, want) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2), ell=st.integers(1, 2), steps=st.integers(1, 80),
       dt=st.sampled_from([1e-3, 1e-2]), seed=st.integers(0, 2 ** 32 - 1))
def test_integrals_keep_conjugate_pairing(n, ell, steps, dt, seed):
    rng = np.random.default_rng(seed)
    spec = random_spec(n, ell, rng)
    table = BlockTable(rep_of_generator(compute_generator(spec)), dt, steps)
    y = rng.normal(size=(steps, 2 * ell)) / np.sqrt(dt)
    ints = accumulate_integrals(table, compute_noise_couplings(spec),
                                MeasurementRecord(dt=dt, steps=steps, y=y))
    ints.check_pairing(1e-12)


def test_conditioned_record_vacuum_statistics():
    spec = builtin_homodyne_thermal(1.0, 0.0, 1.0)
    dt, t_final = 1e-3, 0.4
    y = sample_conditioned_record_gaussian(spec, np.zeros(2), 0.5 * np.eye(2),
                                           dt, t_final, seed=6, n_traj=2000)
    incr = y[:, :, 0] * dt
    n = incr.size
    assert abs(incr.mean()) < 4 * np.sqrt(dt / n)
    assert abs(incr.var() - dt) < 4 * dt * np.sqrt(2.0 / n)
    assert np.abs(y[:, :, 1:]).max() == 0.0


def test_conditioned_record_coherent_initial_current():
    gamma, K, eta = 1.0, 0.0, 1.0
    spec = builtin_homodyne_thermal(gamma, K, eta)
    alpha0 = 0.8
    mean0 = np.array([np.sqrt(2) * alpha0, 0.0])
    dt = 1e-3
    y = sample_conditioned_record_gaussian(spec, mean0, 0.5 * np.eye(2),
                                           dt, 50 * dt, seed=8, n_traj=4000)
    first = y[:, 0, 0]
    want = 2 * np.sqrt(gamma * eta) * alpha0
    se = first.std() / np.sqrt(len(first))
    assert abs(first.mean() - want) < 4 * se


@pytest.mark.parametrize("n_traj", [None, 7])
def test_conditioned_records_match_per_step_loop(n_traj):
    # same seed, same draw order: the records follow the oracle that steps the
    # covariance inside the draw loop
    spec = builtin_optomech_squeezing(1.0, 1.0, 0.4, 0.2, 0.3)
    mean0 = np.sqrt(2) * np.array([0.7, -0.4])
    args = (spec, mean0, 0.5 * np.eye(2), 1e-3, 0.5)
    got = sample_conditioned_record_gaussian(*args, rng=np.random.default_rng(5),
                                             n_traj=n_traj)
    if n_traj is None:
        got = got.y[None]
    want = loop_conditioned_records(*args, rng=np.random.default_rng(5),
                                    n_traj=n_traj)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_stochastic_d_zero_temperature_closed_form():
    gamma, eta = 1.0, 1.0
    spec = builtin_homodyne_thermal(gamma, 0.0, eta)
    rep = rep_of_generator(compute_generator(spec))
    nc = compute_noise_couplings(spec)
    rec = sample_ostensible_record(spec, 1e-3, 0.9, seed=12)
    table = BlockTable(rep, 1e-3, rec.steps)
    ints = accumulate_integrals(table, nc, rec)
    from lintraj.lie_rep import povm_blocks

    lpp = povm_blocks(table.final_blocks())
    d = stochastic_d(ints, lpp)
    taus = 1e-3 * np.arange(1, rec.steps + 1)
    want = np.sqrt(gamma) * np.sum(np.exp(-gamma * taus / 2) * rec.y[:, 0]) * 1e-3
    assert abs(d[0] - want) < 1e-12


def test_record_csv_roundtrip(tmp_path, homodyne_pipeline):
    spec, _, _ = homodyne_pipeline
    rec = sample_ostensible_record(spec, 1e-3, 0.1, seed=3)
    path = tmp_path / "rec.csv"
    record_to_csv(rec, str(path), header_comment="test")
    back = record_from_csv(str(path))
    assert back.steps == rec.steps
    assert abs(back.dt - rec.dt) < 1e-15
    assert np.abs(back.y - rec.y).max() < 1e-15


def _csv_writer_bytes(record, header_comment):
    """The record CSV as the former ``csv.writer`` route wrote it."""
    fh = io.StringIO(newline="")
    if header_comment:
        fh.write(f"# {header_comment}\n")
    writer = csv.writer(fh)
    writer.writerow(["t"] + [f"y_{k + 1}" for k in range(record.y.shape[1])])
    for t, row in zip(record.times, record.y):
        writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in row])
    return fh.getvalue().encode()


@pytest.mark.parametrize("steps", [1, 5])
@pytest.mark.parametrize("comment", ["", "seed 3"])
def test_record_csv_bytes_match_csv_writer(tmp_path, steps, comment):
    special = np.array([-1.5, -0.0, 0.0, 1e300, -2.5e-300, 5e-324, 0.1,
                        -7.0e22, 123456789.125, np.pi, -np.e, 1e-7])
    y = np.resize(special, (steps, 4))
    y[-1] = [-0.0, 1.7976931348623157e308, -1e-310, 1 / 3]
    rec = MeasurementRecord(dt=1e-3, steps=steps, y=y)
    path = tmp_path / "rec.csv"
    record_to_csv(rec, str(path), header_comment=comment)
    assert path.read_bytes() == _csv_writer_bytes(rec, comment)
    if steps == 1:
        # one row fixes no dt; the same values are read back at steps = 5
        with pytest.raises(ConfigError):
            record_from_csv(str(path))
        return
    back = record_from_csv(str(path))
    assert back.dt == float(rec.times[1] - rec.times[0])
    assert back.y.shape == y.shape
    assert np.array_equal(back.y, y)
    assert np.array_equal(np.signbit(back.y), np.signbit(y))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_record_csv_bytes_match_savetxt_at_block_edges(tmp_path, offset):
    steps = trajectory._CSV_BLOCK + offset
    y = np.random.default_rng(offset + 2).normal(size=(steps, 4))
    y[::7, 1:] = 0.0
    rec = MeasurementRecord(dt=1e-4, steps=steps, y=y)
    path = tmp_path / "rec.csv"
    record_to_csv(rec, str(path), header_comment="seed 3")
    fh = io.StringIO(newline="")
    fh.write("# seed 3\nt,y_1,y_2,y_3,y_4\r\n")
    np.savetxt(fh, np.column_stack([rec.times, y]), fmt="%.17g",
               delimiter=",", newline="\r\n")
    assert path.read_bytes() == fh.getvalue().encode()


def test_block_table_keeps_grid_blocks_and_rejects_overflow(homodyne_pipeline):
    from lintraj.errors import MatrixExpFailure
    from lintraj.lie_rep import RepMatrix

    _, rep, _ = homodyne_pipeline
    assert block_table_residual(BlockTable(rep, 1e-3, 40), rep) < 1e-12
    T = np.zeros((6, 6), dtype=complex)
    T[1, 1] = 400.0     # exp(800) overflows at the second step
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(MatrixExpFailure):
        BlockTable(RepMatrix(n_modes=1, matrix=T), 1.0, 3)
