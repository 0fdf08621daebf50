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
    Detector,
    EqualizerSpec,
    ReductionTarget,
    Structure,
    Workspace,
    build_detector,
    build_detectors,
    detect_block,
    le_zf_matrix,
    lra_le_error_covariance,
    lra_le_mmse_matrix,
)
from .estimate import (
    correlated_fb_matrix,
    correlated_ff_matrix,
    schur_gramian_identity,
    sorting_metric,
)
from .lattice import (
    ReducedBasis,
    ReductionError,
    lll_reduce,
    unimodular_inverse,
)
from .model import (
    Constellation,
    MimoChannel,
    augment,
    complex_matrix_to_real,
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
