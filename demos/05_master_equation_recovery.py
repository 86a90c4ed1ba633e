"""Averaging weighted trajectories recovers the deterministic evolution.

Records sampled from the reference white-noise law, each propagated by the
factored evolution operator and weighted by its norm times exp(h), average to
the unconditioned master-equation state. This demo uses a modest ensemble;
the acceptance suite runs the same check at 10^4 trajectories.
"""

import numpy as np

from lintraj import (
    BlockTable,
    accumulate_integrals_ensemble,
    builtin_homodyne_thermal,
    coherent_state,
    compute_generator,
    compute_noise_couplings,
    fock_operators,
    integrate_me,
    rep_of_generator,
)
from lintraj.lie_rep import normal_order_linear, reordering_scalar
from lintraj.state_engine import EnsemblePropagator

gamma, K, eta = 1.0, 0.3, 0.7
dt, t_final, dim, n_traj = 1e-3, 1.0, 18, 2000
alpha0 = 0.6

spec = builtin_homodyne_thermal(gamma, K, eta)
rep = rep_of_generator(compute_generator(spec))
couplings = compute_noise_couplings(spec)
steps = int(round(t_final / dt))
table = BlockTable(rep, dt, steps)
blocks = table.final_blocks()
propagator = EnsemblePropagator.from_blocks(blocks, dim)

rho0 = coherent_state(1, dim, alpha0)
v0 = rho0.rho.reshape(-1, order="F")
_, _, num = fock_operators(dim)
tr_num = num.T.reshape(-1, order="F")

rng = np.random.default_rng(1)
mask = spec.monitored
y = np.zeros((n_traj, steps, 2 * spec.n_channels))
y[:, :, mask] = rng.normal(size=(n_traj, steps, int(mask.sum()))) / np.sqrt(dt)
l_ens, r_ens, h_ens = accumulate_integrals_ensemble(table, couplings, y)

samples = np.empty(n_traj)
for k in range(n_traj):
    l_u, r_u = normal_order_linear(blocks, l_ens[k], r_ens[k])
    sigma = reordering_scalar(blocks, r_ens[k])
    v = propagator.propagate_vec(v0, l_u[:1], r_u[:1], sigma)
    samples[k] = np.real(np.exp(h_ens[k]) * (tr_num @ v))

me_state = integrate_me(spec, rho0, t_final, dt=1e-3)
want = np.real(np.trace(num @ me_state.rho))
mean = samples.mean()
se = samples.std(ddof=1) / np.sqrt(n_traj)
print(f"weighted trajectory average <n>: {mean:.5f} +- {se:.5f}")
print(f"deterministic evolution    <n>: {want:.5f}")
print(f"difference / standard error    : {abs(mean - want) / se:.2f}")
