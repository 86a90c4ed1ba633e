import contextlib
import csv
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import (
    block_table_residual,
    einsum_accumulation,
    loop_conditioned_records,
    random_spec,
    two_damped_modes,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from lintraj import trajectory
from lintraj.errors import (
    ConfigError,
    CrossCheckFailure,
    DimensionMismatch,
    ParameterOutOfRange,
)
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
    rec = MeasurementRecord(dt=1e-3, y=np.zeros((steps, 4)))
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
    assert trajectory._pairing_residuals(ints.l_prime, ints.r_prime) <= 1e-12


def test_ensemble_names_the_first_record_that_loses_pairing():
    # a stiff mode: lambda_max T = 250 is far past where float64 keeps the
    # two halves of l' and r' conjugate; an all-zero record stays paired
    spec = builtin_homodyne_thermal(1000.0, 0.2, 0.8)
    rep = rep_of_generator(compute_generator(spec))
    nc = compute_noise_couplings(spec)
    table = BlockTable(rep, 1e-3, 500)
    y = np.zeros((3, 500, 4))
    y[1:, :, 0] = np.random.default_rng(8).normal(size=(2, 500)) / np.sqrt(1e-3)
    with pytest.raises(CrossCheckFailure, match=r"^record 1: integrals violate "
                                                r"conjugate pairing"):
        accumulate_integrals_ensemble(table, nc, y)
    # one record: the message names no record
    with pytest.raises(CrossCheckFailure, match=r"^integrals violate"):
        accumulate_integrals(table, nc, MeasurementRecord(dt=1e-3, y=y[2]))


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
    rec = MeasurementRecord(dt=dt, y=y)
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
        rec = MeasurementRecord(dt=dt, y=y)
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
    span = 64 // n_traj        # step counts around the old streamed chunk
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


@pytest.mark.parametrize("n_traj", [1, 7])
@pytest.mark.parametrize("steps_case", ["1", "7", "8", "9", "group-1", "group",
                                        "group+1"])
@pytest.mark.parametrize("system", ["homodyne", "optomech"])
def test_blocked_scan_edges_match_einsum_oracle(monkeypatch, system,
                                                steps_case, n_traj):
    spec = {"homodyne": lambda: builtin_homodyne_thermal(1.0, 0.6, 0.7),
            "optomech": _optomech}[system]()
    nc = compute_noise_couplings(spec)
    k = int((np.any(nc.W_l != 0, axis=1) | np.any(nc.W_r != 0, axis=1)).sum())
    # a budget of three scan blocks per group, so the group edge is near
    block = trajectory._SCAN_BLOCK
    monkeypatch.setattr(trajectory, "_STREAM_CHUNK",
                        3 * block * (n_traj + 16 * k))
    group = 3 * block
    steps = {"group-1": group - 1, "group": group,
             "group+1": group + 1}.get(steps_case) or int(steps_case)
    table = BlockTable(rep_of_generator(compute_generator(spec)), 1e-3, steps)
    y = (np.random.default_rng(steps).normal(size=(n_traj, steps,
                                                   2 * spec.n_channels))
         / np.sqrt(1e-3))
    got = accumulate_integrals_ensemble(table, nc, y)
    assert _relative_gap(got, einsum_accumulation(table, nc, y)) <= 1e-12


def test_empty_ensemble_gives_empty_integrals(homodyne_pipeline):
    _, rep, nc = homodyne_pipeline
    l_p, r_p, h = accumulate_integrals_ensemble(BlockTable(rep, 1e-3, 9), nc,
                                                np.zeros((0, 9, 4)))
    assert l_p.shape == r_p.shape == (0, 2)
    assert h.shape == (0,)


def test_uncoupled_spec_gives_zero_integrals():
    # eta = 0: no current column has a coupling row (k = 0)
    spec = builtin_homodyne_thermal(1.0, 0.3, 0.0)
    nc = compute_noise_couplings(spec)
    assert not (np.any(nc.W_l != 0) or np.any(nc.W_r != 0))
    table = BlockTable(rep_of_generator(compute_generator(spec)), 1e-3, 20)
    y = np.random.default_rng(2).normal(size=(3, 20, 4))
    for got in accumulate_integrals_ensemble(table, nc, y):
        assert not np.any(got)


def test_finiteness_check_holds_no_record_sized_temporary():
    # the record-summary ensemble: 1000 records of 2000 steps, 6 currents
    y = np.zeros((1000, 2000, 6))
    tracemalloc.start()
    try:
        trajectory.checked_currents(y, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["last chunk", "uncoupled column"])
def test_non_finite_current_anywhere_is_rejected(homodyne_pipeline, bad, where):
    _, rep, nc = homodyne_pipeline
    n_traj, steps = 40, 5000         # four finiteness chunks of 1638 steps
    uncoupled = np.flatnonzero(~np.any(nc.W_l != 0, axis=1)
                               & ~np.any(nc.W_r != 0, axis=1))
    table = BlockTable(rep, 1e-3, steps)
    # C order, and the sampler's column planes
    for y in (np.zeros((n_traj, steps, 4)),
              np.zeros((4, steps, n_traj)).transpose(2, 1, 0)):
        if where == "last chunk":
            y[-1, -1, 0] = bad
        else:
            y[7, 100, uncoupled[0]] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            accumulate_integrals_ensemble(table, nc, y)


def test_accumulation_memory_stays_within_chunk_budget(homodyne_pipeline):
    _, rep, nc = homodyne_pipeline
    optomech = _optomech()
    opto = (rep_of_generator(compute_generator(optomech)),
            compute_noise_couplings(optomech), 6)
    long_homodyne = builtin_homodyne_thermal(1.0, 0.2, 0.8)
    long_hom = (rep_of_generator(compute_generator(long_homodyne)),
                compute_noise_couplings(long_homodyne), 4)
    # an ensemble, and single 5e4-step records, where a group of scan blocks
    # spans thousands of steps; on optomech (k = 2 coupled columns) block
    # matrices M_c built for the whole grid at once would exceed the bound.
    # The homodyne record (t = 50) loses the conjugate pairing of (l', r'),
    # so its call ends in CrossCheckFailure after the whole scan.  On the
    # 1e6-step record (t = 10) a whole-grid kernel array would be 61 MiB
    for (rep_, nc_, n_cols), dt, n_traj, steps, unpaired in (
            ((rep, nc, 4), 1e-3, 200, 4000, False),
            ((rep, nc, 4), 1e-3, 1, 50_000, True),
            (opto, 1e-3, 1, 50_000, False),
            (long_hom, 1e-5, 1, 1_000_000, False)):
        table = BlockTable(rep_, dt, steps)
        y = np.random.default_rng(5).normal(size=(n_traj, steps, n_cols))
        k = int((np.any(nc_.W_l != 0, axis=1) | np.any(nc_.W_r != 0, axis=1)).sum())
        # each (record, step) pair of a group holds well under 256 bytes of
        # temporaries at N = 1: the coupled record columns, the per-step
        # kernels [KL | KR] of the group, the complex block sums [dl' | dr'],
        # the record times the block matrices M_c, and the M_c
        budget_bytes = trajectory._STREAM_CHUNK * 256
        tracemalloc.start()
        try:
            with (pytest.raises(CrossCheckFailure) if unpaired
                  else contextlib.nullcontext()):
                accumulate_integrals_ensemble(table, nc_, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < y.nbytes + budget_bytes, (k, n_traj, steps)


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
                                    MeasurementRecord(dt=1e-3, y=row))
               for row in y]
    want = (np.array([s.l_prime for s in singles]),
            np.array([s.r_prime for s in singles]),
            np.array([s.h for s in singles]))
    assert _relative_gap(ens, want) <= 1e-12


@pytest.mark.parametrize("chunk", [None, 2 ** 10])
@pytest.mark.parametrize("layout", ["C order", "column planes"])
def test_ensemble_record_ignores_the_other_records(monkeypatch, layout, chunk):
    # at a fixed record count, record i's (l', r', h) are bitwise the same
    # whatever the other records hold: no sum mixes records.  700 steps
    # reach several bases; the small budget also cuts them into scan groups
    if chunk is not None:
        monkeypatch.setattr(trajectory, "_STREAM_CHUNK", chunk)
    spec = _optomech()
    nc = compute_noise_couplings(spec)
    steps, n_traj = 700, 5
    table = BlockTable(rep_of_generator(compute_generator(spec)), 1e-3, steps)
    rng = np.random.default_rng(12)

    def ensemble(rows):
        if layout == "C order":
            return rows
        planes = np.zeros((6, steps, n_traj))
        planes[...] = rows.transpose(2, 1, 0)
        return planes.transpose(2, 1, 0)

    y = rng.normal(size=(n_traj, steps, 6)) / np.sqrt(1e-3)
    base = accumulate_integrals_ensemble(table, nc, ensemble(y))
    for i in range(n_traj):
        other = rng.normal(size=y.shape) / np.sqrt(1e-3)
        other[i] = y[i]
        if i % 2:
            other[np.arange(n_traj) != i] = 0.0
        got = accumulate_integrals_ensemble(table, nc, ensemble(other))
        for g, b in zip(got, base):
            assert g[i].tobytes() == b[i].tobytes(), i


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2), ell=st.integers(1, 2), steps=st.integers(1, 80),
       dt=st.sampled_from([1e-3, 1e-2]), seed=st.integers(0, 2 ** 32 - 1))
def test_integrals_keep_conjugate_pairing(n, ell, steps, dt, seed):
    rng = np.random.default_rng(seed)
    spec = random_spec(n, ell, rng)
    table = BlockTable(rep_of_generator(compute_generator(spec)), dt, steps)
    y = rng.normal(size=(steps, 2 * ell)) / np.sqrt(dt)
    ints = accumulate_integrals(table, compute_noise_couplings(spec),
                                MeasurementRecord(dt=dt, y=y))
    assert trajectory._pairing_residuals(ints.l_prime, ints.r_prime) <= 1e-12


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


_CONDITIONED_SYSTEMS = {
    # 2 of 6 current columns monitored
    "optomech": lambda: (_optomech(), np.sqrt(2) * np.array([0.7, -0.4])),
    # 1 of 4
    "homodyne": lambda: (builtin_homodyne_thermal(1.0, 0.6, 0.7),
                         np.array([0.9, -0.2])),
    # 2 of 4, not adjacent
    "two-mode": lambda: (two_damped_modes(), np.array([0.5, -0.3, 0.2, 0.8])),
}


@pytest.mark.parametrize("chunk_steps", [None, 37])
@pytest.mark.parametrize("n_traj", [None, 1, 7])
@pytest.mark.parametrize("system", list(_CONDITIONED_SYSTEMS))
def test_conditioned_records_match_per_step_loop(monkeypatch, system, n_traj,
                                                 chunk_steps):
    # same seed, same draw order: the records follow the oracle that steps the
    # covariance inside the draw loop, also across chunk edges (500 steps is
    # 13 chunks of 37 and one of 19)
    spec, mean0 = _CONDITIONED_SYSTEMS[system]()
    if chunk_steps is not None:
        width = 2 * spec.n_modes + int(spec.monitored.sum())
        monkeypatch.setattr(trajectory, "_STREAM_CHUNK",
                            chunk_steps * (n_traj or 1) * width)
    args = (spec, mean0, 0.5 * np.eye(len(mean0)), 1e-3, 0.5)
    rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = sample_conditioned_record_gaussian(*args, rng=rng, n_traj=n_traj)
    if n_traj is None:
        got = got.y[None]
    # one (steps, records) plane per current column: records are the fastest
    # axis, then steps, then columns
    assert got.strides[1:] == (8 * (n_traj or 1), 8 * (n_traj or 1) * 500)
    want = loop_conditioned_records(*args, rng=oracle_rng, n_traj=n_traj)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # exactly steps * records * monitored numbers were drawn, in order
    assert rng.standard_normal() == oracle_rng.standard_normal()


_SAMPLER_RSS = """
import resource, sys
import numpy as np
from lintraj import builtin_optomech_squeezing, sample_conditioned_record_gaussian
spec = builtin_optomech_squeezing(1.0, 1.0, 0.4, 0.2, 0.3)
args = (spec, np.array([0.99, -0.57]), 0.5 * np.eye(2), 1e-3)
sample_conditioned_record_gaussian(*args, 0.01, n_traj=1000)     # warm up
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
y = sample_conditioned_record_gaussian(*args, 2.0, n_traj=1000)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024, int(spec.monitored.sum()) * y[..., 0].nbytes)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is KiB on Linux")
def test_conditioned_sampler_leaves_unmonitored_planes_untouched():
    # the record-summary ensemble, 1000 records of 2000 steps: only the two
    # monitored planes (32 MB of the 96 MB record) are written, so the peak
    # resident set of a fresh process grows by little more than those.  The
    # zero planes are never read here, so the host's zero-page handling
    # does not enter the bound
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _SAMPLER_RSS],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rise, monitored_bytes = map(int, proc.stdout.split())
    assert monitored_bytes == 32_000_000
    assert rise <= monitored_bytes + 16 * 2 ** 20, rise


def test_accumulation_is_bitwise_the_same_in_every_layout():
    # the sampler's column planes, the former time-major view and a C-order
    # copy of the same records give the same bits
    spec, mean0 = _CONDITIONED_SYSTEMS["optomech"]()
    planes = sample_conditioned_record_gaussian(spec, mean0, 0.5 * np.eye(2),
                                                1e-3, 0.6, seed=9, n_traj=40)
    time_major = np.ascontiguousarray(planes.transpose(1, 0, 2)).transpose(1, 0, 2)
    table = BlockTable(rep_of_generator(compute_generator(spec)), 1e-3, 600)
    nc = compute_noise_couplings(spec)
    want = accumulate_integrals_ensemble(table, nc, np.ascontiguousarray(planes))
    for y in (planes, time_major):
        for got, ref in zip(accumulate_integrals_ensemble(table, nc, y), want):
            assert np.array_equal(got, ref)


def test_conditioned_sampler_memory_stays_within_output():
    # the record-summary sampler at 200 records: beyond its output, only the
    # per-step matrices and one chunk's draws and states
    spec, mean0 = _CONDITIONED_SYSTEMS["optomech"]()
    tracemalloc.start()
    try:
        y = sample_conditioned_record_gaussian(spec, mean0, 0.5 * np.eye(2),
                                               1e-3, 2.0, seed=3, n_traj=200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.shape == (200, 2000, 6)
    assert peak <= y.nbytes + 2 * 2 ** 20


# grids both samplers reject, at dt = 1e-3
_BAD_GRIDS = {
    "nan dt": {"dt": np.nan},
    "inf dt": {"dt": np.inf},
    "zero dt": {"dt": 0.0},
    "negative dt": {"dt": -1e-3},
    "inf t_final": {"t_final": np.inf},
    "nan t_final": {"t_final": np.nan},
    "t_final below one step": {"t_final": 4e-4},
}

_BAD_SAMPLER_INPUTS = {
    "nan mean": (ParameterOutOfRange, {"mean": np.array([np.nan, 0.0])}),
    "complex mean": (ParameterOutOfRange, {"mean": np.array([1.0, 1j])}),
    "inf cov": (ParameterOutOfRange, {"cov": np.diag([0.5, np.inf])}),
    "complex cov": (ParameterOutOfRange,
                    {"cov": 0.5 * np.eye(2) + 0.1j * np.eye(2)}),
    "short mean": (DimensionMismatch, {"mean": np.zeros(1)}),
    "long mean": (DimensionMismatch, {"mean": np.zeros(3)}),
    "cov 3x3": (DimensionMismatch, {"cov": 0.5 * np.eye(3)}),
    "cov (2,)": (DimensionMismatch, {"cov": np.ones(2)}),
    **{case: (ParameterOutOfRange, bad) for case, bad in _BAD_GRIDS.items()},
    "zero n_traj": (ParameterOutOfRange, {"n_traj": 0}),
    "negative n_traj": (ParameterOutOfRange, {"n_traj": -1}),
    "fractional n_traj": (ParameterOutOfRange, {"n_traj": 2.5}),
}


@pytest.mark.parametrize("case", list(_BAD_SAMPLER_INPUTS))
def test_conditioned_sampler_rejects_bad_input_before_the_flow(case):
    error, bad = _BAD_SAMPLER_INPUTS[case]
    kwargs = {"mean": np.array([0.7, -0.4]), "cov": 0.5 * np.eye(2),
              "dt": 1e-3, "t_final": 0.1, "n_traj": 3, **bad}
    with mock.patch("lintraj.adjoint_kalman.forward_covariance_flow",
                    side_effect=AssertionError("the flow ran")):
        with pytest.raises(error):
            sample_conditioned_record_gaussian(_optomech(), **kwargs)


@pytest.mark.parametrize("case", list(_BAD_GRIDS))
def test_ostensible_sampler_rejects_bad_grid(homodyne_pipeline, case):
    spec, _, _ = homodyne_pipeline
    grid = {"dt": 1e-3, "t_final": 0.1, **_BAD_GRIDS[case]}
    with pytest.raises(ParameterOutOfRange):
        sample_ostensible_record(spec, **grid)


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
    rec = MeasurementRecord(dt=1e-3, y=y)
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


def test_record_csv_holds_no_whole_record_copy(tmp_path):
    # each block of rows is formed from the record's own rows and times
    rec = MeasurementRecord(dt=1e-4, y=np.random.default_rng(4).normal(
        size=(50_000, 4)))
    tracemalloc.start()
    try:
        record_to_csv(rec, str(tmp_path / "rec.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rec.y.nbytes / 2


def _savetxt_bytes(record, header_comment):
    """The record CSV as np.savetxt writes it, after the header lines."""
    fh = io.StringIO(newline="")
    fh.write(f"# {header_comment}\nt,y_1,y_2,y_3,y_4\r\n")
    np.savetxt(fh, np.column_stack([record.times, record.y]), fmt="%.17g",
               delimiter=",", newline="\r\n")
    return fh.getvalue().encode()


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_record_csv_bytes_match_savetxt_at_block_edges(tmp_path, offset):
    steps = trajectory._CSV_BLOCK + offset
    y = np.random.default_rng(offset + 2).normal(size=(steps, 4))
    y[::7, 1:] = 0.0
    rec = MeasurementRecord(dt=1e-4, y=y)
    path = tmp_path / "rec.csv"
    record_to_csv(rec, str(path), header_comment="seed 3")
    assert path.read_bytes() == _savetxt_bytes(rec, "seed 3")


def _zero_columns(steps):
    return np.zeros((steps, 4))


def _one_negative_zero(steps):
    # the -0.0 sits in the last block of rows: the column is not all +0.0
    y = np.zeros((steps, 4))
    y[-1, 2] = -0.0
    return y


def _mixed_columns(steps):
    y = np.zeros((steps, 4))
    y[:, 0] = np.random.default_rng(5).normal(size=steps) * 30.0
    y[::3, 1] = np.resize([5e-324, -1e300, 0.1], len(y[::3]))
    y[1::5, 3] = -0.0
    return y


@pytest.mark.parametrize("kind", [_zero_columns, _one_negative_zero,
                                  _mixed_columns],
                         ids=["all-zero", "one-negative-zero", "mixed"])
def test_record_csv_zero_columns_match_savetxt(tmp_path, kind):
    # an all +0.0 column is written as the literal 0 that %.17g gives it;
    # a column with one -0.0 is formatted cell by cell
    y = kind(trajectory._CSV_BLOCK + 3)
    rec = MeasurementRecord(dt=1e-3, y=y)
    path = tmp_path / "rec.csv"
    record_to_csv(rec, str(path), header_comment="manifest 0123")
    assert path.read_bytes() == _savetxt_bytes(rec, "manifest 0123")
    back = record_from_csv(str(path))
    assert back.y.tobytes() == y.tobytes()


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


_BAD_TABLE_GRIDS = {
    "zero steps": {"steps": 0},
    "negative steps": {"steps": -3},
    "fractional steps": {"steps": 2.5},
    "zero dt": {"dt": 0.0},
    "negative dt": {"dt": -1e-3},
    "inf dt": {"dt": np.inf},
    "nan dt": {"dt": np.nan},
}


@pytest.mark.parametrize("case", list(_BAD_TABLE_GRIDS))
def test_block_table_rejects_bad_grid_before_any_power(homodyne_pipeline,
                                                       case):
    _, rep, _ = homodyne_pipeline
    grid = {"dt": 1e-3, "steps": 10, **_BAD_TABLE_GRIDS[case]}
    with mock.patch("lintraj._linalg.expm",
                    side_effect=AssertionError("a power was formed")):
        with pytest.raises(ParameterOutOfRange):
            BlockTable(rep, **grid)


@pytest.mark.parametrize("system", ["homodyne", "optomech"])
def test_block_table_holds_no_per_step_array(system):
    # 1e6 steps: 1000 powers and 1000 bases, ~0.5 MB, where the grid of the
    # inner blocks alone was 256 MB; exponentiated 128 at a time, the build
    # peaks near 1.3 MB
    spec = {"homodyne": lambda: builtin_homodyne_thermal(1.0, 0.3, 0.7),
            "optomech": _optomech}[system]()
    rep = rep_of_generator(compute_generator(spec))
    tracemalloc.start()
    try:
        table = BlockTable(rep, 1e-5, 1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2e6
    assert np.isfinite(table.final_blocks().Nm1m1).all()


def test_accumulate_rejects_record_on_another_grid():
    # a dt = 2e-3 record of the table's 500 steps used to be summed against
    # the kernels of the 1e-3 grid and labelled t = 1.0
    spec = builtin_homodyne_thermal(1.0, 0.3, 0.7)
    table = BlockTable(rep_of_generator(compute_generator(spec)), 1e-3, 500)
    rec = sample_ostensible_record(spec, 2e-3, 1.0, seed=1)
    assert rec.steps == table.steps
    with pytest.raises(DimensionMismatch, match="dt"):
        accumulate_integrals(table, compute_noise_couplings(spec), rec)
