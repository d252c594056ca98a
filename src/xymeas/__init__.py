"""Joint X/Y qubit measurement simulation and error-statistics toolkit.

Simulates four-outcome joint measurements of the non-commuting qubit
observables X and Y on eigenstate and entangled-pair inputs, estimates the
measurement resolutions and the correlation between the two errors (which
quantum mechanics forces to be imaginary, ``c^2 = -vz^2``), and
reconstructs Kirkwood-Dirac quasi-probabilities from measured outcome
tables.
"""

from .analysis import (
    CLASSICAL_SIGMA,
    ErrorModel,
    Estimate,
    classicality_statistic,
    collapse_pair_counts,
    correct_for_source_noise,
    eigenstate_probs_from_error_model,
    error_model_from_visibilities,
    estimate_visibility,
    is_classical,
    pattern_estimates,
    pattern_of,
    predicted_pattern_probs,
    visibilities_from_error_model,
)
from .kirkwood import (
    KDDistribution,
    SingularInversionError,
    forward_map,
    kd_from_state,
    kd_pair_from_state,
    random_qubit_density,
    reconstruct_kd,
    verify_operator_identities,
)
from .povm import (
    HADAMARD,
    OUTCOMES4,
    OUTCOMES16,
    PATTERNS,
    JointPovm,
    PatternStats,
    PositivityError,
    Table,
    VisibilityTriple,
    build_povm,
    exact_pattern_probs,
    ideal_operator,
    outcome_probs,
    pair_outcome_probs,
)
from .qubit import (
    ATOL_ALGEBRA,
    ATOL_EIG,
    density,
    eigenstate,
    identity,
    min_eigenvalue_hermitian,
    pauli,
    singlet,
    tensor,
    tensor_state,
    trace_product,
)
from .simulate import (
    BLOCK_SHOTS,
    RNG_ID,
    ExperimentConfig,
    OutcomeCounts4,
    PairCounts16,
    block_rng,
    run_eigenstate_experiment,
    run_pair_experiment,
    werner_state,
)

__version__ = "0.1.0"
