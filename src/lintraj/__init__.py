"""Conditioned evolution and POVMs for linearly monitored bosonic modes.

Solve the measurement-conditioned dynamics of N-mode systems with quadratic
Hamiltonians, linear coupling operators, and Gaussian (dyne) monitoring, for
arbitrary initial states on a truncated Fock space; compute the Gaussian
effect operator of the compiled measurement; cross-check everything against
brute-force integrators and Kalman filters.
"""

__version__ = "0.1.0"

from .adjoint_kalman import (
    EffectMoments,
    KalmanMatrices,
    crosscheck_against_povm,
    forward_filter,
    integrate_backward,
    kalman_matrices,
)
from .errors import LintrajError
from .lie_rep import (
    DisentangledQuadratic,
    PropagatorBlocks,
    RepMatrix,
    disentangle_quadratic,
    normal_order_linear,
    povm_blocks,
    propagator_blocks,
    rep_of_generator,
)
from .oracle_sme import integrate_linear_sme, integrate_me
from .parameterization import (
    NoiseCouplings,
    QuadraticForm,
    compute_generator,
    compute_noise_couplings,
)
from .povm import (
    GaussianEffect,
    effect_from_blocks,
    homodyne_closed_form,
    optomech_closed_form,
    q_density,
    retrodict_posterior,
)
from .state_engine import (
    EvolutionFactors,
    FockDensityMatrix,
    apply_evolution,
    coherent_state,
    expectation,
    fock_operators,
    fock_state,
    normalize_and_trace,
    trace_distance,
    vacuum_state,
)
from .system import (
    FockFormSpec,
    SystemSpec,
    builtin_homodyne_thermal,
    builtin_optomech_squeezing,
    from_fock_form,
    spec_from_config,
    validate_spec,
)
from .trajectory import (
    BlockTable,
    MeasurementRecord,
    TrajectoryIntegrals,
    accumulate_integrals,
    accumulate_integrals_ensemble,
    sample_conditioned_record_gaussian,
    sample_ostensible_record,
    stochastic_d,
)
