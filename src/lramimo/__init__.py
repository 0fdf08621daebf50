"""Lattice-reduction-aided MIMO equalization and simulation toolkit."""

from .blast import (
    DfeFilterSet,
    FactorizationError,
    classic_dfe_filters,
    fast_vblast_correlated,
    vblast_sorted_factorization,
)
from .equalize import (
    ALL_SPECS,
    Criterion,
    DetectionResult,
    Detector,
    EqualizerSpec,
    ReductionTarget,
    Structure,
    build_detector,
    detect,
    detect_block,
    le_mmse_matrix,
    le_zf_matrix,
    lra_le_error_covariance,
    lra_le_mmse_matrix,
)
from .estimate import (
    GaussianPrior,
    PartitionedGramian,
    PartitionedStats,
    conditional_stats,
    correlated_fb_matrix,
    correlated_ff_matrix,
    error_covariance,
    linear_mmse_estimate,
    partition_stats,
    partitioned_gramian,
    schur_gramian_identity,
    sorting_metric,
)
from .lattice import (
    ReducedBasis,
    ReductionError,
    integer_determinant,
    lll_reduce,
    orthogonality_defect,
    unimodular_inverse,
    z_covariance,
)
from .model import (
    Constellation,
    MimoChannel,
    apply_channel,
    augment,
    augment_observation,
    complex_matrix_to_real,
    complex_to_real_model,
    make_ask_constellation,
)
from .sim import (
    RedrawLimitError,
    SimConfig,
    SimPoint,
    SimResult,
    compare_reduction_targets,
    draw_channel,
    emit_results,
    ml_bruteforce_detect,
    run_monte_carlo,
    trial_rng,
)

__version__ = "0.1.0"
