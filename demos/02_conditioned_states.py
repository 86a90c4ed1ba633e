"""Conditioned evolution of a non-Gaussian state, checked against brute force.

A Fock |1> state under perfect homodyne monitoring stays pure along every
trajectory. The factored evolution operator applies the exact conditional map
for a given record; a truncated-Fock Euler-Maruyama integrator of the same
linear equation converges to it as dt shrinks.
"""

from lintraj import (
    BlockTable,
    accumulate_integrals,
    apply_evolution,
    builtin_homodyne_thermal,
    compute_generator,
    compute_noise_couplings,
    expectation,
    fock_operators,
    fock_state,
    integrate_linear_sme,
    normalize_and_trace,
    rep_of_generator,
    sample_ostensible_record,
    trace_distance,
)

gamma, dt, t_final, dim = 1.0, 1e-3, 1.0, 25
spec = builtin_homodyne_thermal(gamma, K=0.0, eta=1.0)
rep = rep_of_generator(compute_generator(spec))
couplings = compute_noise_couplings(spec)
rho0 = fock_state(1, dim, 1)
a, ad, num = fock_operators(dim)

print("trajectory   trace dist    purity     <n>(pipeline)  <n>(oracle)")
for seed in range(4):
    record = sample_ostensible_record(spec, dt, t_final, seed=seed)
    table = BlockTable(rep, dt, record.steps)
    ints = accumulate_integrals(table, couplings, record)
    state, _ = normalize_and_trace(apply_evolution(rho0, table.final_blocks(),
                                                   ints))
    oracle, _ = normalize_and_trace(integrate_linear_sme(spec, rho0, record))
    print(f"  seed {seed}    {trace_distance(state.rho, oracle.rho):.2e}"
          f"    {state.purity():.6f}   {expectation(state, num).real:.6f}"
          f"      {expectation(oracle, num).real:.6f}")

print()
print("the pipeline state is exact for its record; the Euler integrator")
print("carries the O(sqrt(dt)) discretization error quoted above")
