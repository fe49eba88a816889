"""Weak-measurement localization onto generalized coherent states.

Simulates the stochastic nonlinear Schrodinger equation for simultaneous
weak measurement of every generator of a compact semisimple Lie algebra,
its Lindblad ensemble counterpart, and the algebraic machinery (Cartan
decomposition, roots, weights, coherent states, uncertainty functionals)
needed to verify that the coherent-state orbit is the globally stable
attractor of the dynamics.
"""

from .algebra import (
    AlgebraRep,
    algebra_from_generators,
    build_su2_irrep,
    build_sun_fundamental,
)
from .cartan import (
    CartanData,
    align_expectation_to_cartan,
    cartan_decompose,
    generate_gcs,
    highest_weight_state,
    weight_string,
)
from .dynamics import (
    NoiseConfig,
    TrajectoryRecord,
    ensemble_average,
    ensemble_observables,
    haar_state,
    haar_states,
    lindblad_evolve,
    lindblad_expm_evolve,
    simulate_trajectory,
    snlse_step,
    stream_rng,
    validate_density,
)
from .observables import (
    CartanSplit,
    cartan_split_sums,
    covariance_matrix,
    covariance_trace_norm,
    expectation_vector,
    generalized_purity,
    localization_drift,
    root_pair_closed_form,
    total_uncertainty,
    uncertainty_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraRep",
    "CartanData",
    "CartanSplit",
    "NoiseConfig",
    "TrajectoryRecord",
    "algebra_from_generators",
    "align_expectation_to_cartan",
    "build_su2_irrep",
    "build_sun_fundamental",
    "cartan_decompose",
    "cartan_split_sums",
    "covariance_matrix",
    "covariance_trace_norm",
    "ensemble_average",
    "ensemble_observables",
    "expectation_vector",
    "generalized_purity",
    "generate_gcs",
    "haar_state",
    "haar_states",
    "highest_weight_state",
    "lindblad_evolve",
    "lindblad_expm_evolve",
    "localization_drift",
    "root_pair_closed_form",
    "simulate_trajectory",
    "snlse_step",
    "stream_rng",
    "total_uncertainty",
    "uncertainty_bounds",
    "validate_density",
    "weight_string",
]
