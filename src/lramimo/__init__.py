"""Lattice-reduction-aided MIMO equalization and simulation toolkit.

Exports the program only; its oracles are in ``checks`` and ``estimate``.
"""

from .blast import (
    DfeFilterSet,
    FactorizationError,
    le_zf_matrix,
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
    build_detectors,
    detect_block,
)
from .lattice import ReducedBasis, ReductionError, lll_reduce
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
    run_monte_carlo,
    trial_rng,
)

__version__ = "0.1.0"
