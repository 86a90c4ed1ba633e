"""Averaging weighted trajectories recovers the deterministic evolution.

Records sampled from the reference white-noise law, each propagated by the
factored evolution operator and weighted by its norm times exp(h), average to
the unconditioned master-equation state. This demo uses a modest ensemble;
the acceptance suite runs the same check at 10^4 trajectories.
"""

import numpy as np

from lintraj import (
    BlockTable,
    EvolutionFactors,
    TrajectoryIntegrals,
    accumulate_integrals_ensemble,
    builtin_homodyne_thermal,
    coherent_state,
    compute_generator,
    compute_noise_couplings,
    expectation,
    fock_operators,
    integrate_me,
    rep_of_generator,
)
from lintraj.state_engine import EnsemblePropagator

gamma, K, eta = 1.0, 0.3, 0.7
dt, t_final, dim, n_traj = 1e-3, 1.0, 18, 2000
alpha0 = 0.6

spec = builtin_homodyne_thermal(gamma, K, eta)
rep = rep_of_generator(compute_generator(spec))
couplings = compute_noise_couplings(spec)
steps = int(round(t_final / dt))
table = BlockTable(rep, dt, steps)
engine = EnsemblePropagator(EvolutionFactors.from_blocks(table.final_blocks()),
                            dim)

rho0 = coherent_state(1, dim, alpha0)
_, _, num = fock_operators(dim)

rng = np.random.default_rng(1)
mask = spec.monitored
y = np.zeros((n_traj, steps, 2 * spec.n_channels))
y[:, :, mask] = rng.normal(size=(n_traj, steps, int(mask.sum()))) / np.sqrt(dt)
l_ens, r_ens, h_ens = accumulate_integrals_ensemble(table, couplings, y)

integrals = [TrajectoryIntegrals(n_modes=1, t=t_final, l_prime=l, r_prime=r, h=h)
             for l, r, h in zip(l_ens, r_ens, h_ens)]
states = engine.evolve_records(rho0, integrals)
samples = np.array([np.real(np.exp(ints.h) * expectation(state, num))
                    for state, ints in zip(states, integrals)])

me_state = integrate_me(spec, rho0, t_final, dt=1e-3)
want = np.real(np.trace(num @ me_state.rho))
mean = samples.mean()
se = samples.std(ddof=1) / np.sqrt(n_traj)
print(f"weighted trajectory average <n>: {mean:.5f} +- {se:.5f}")
print(f"deterministic evolution    <n>: {want:.5f}")
print(f"difference / standard error    : {abs(mean - want) / se:.2f}")
