"""Simulation laboratory for least squares prediction with an integrated
regressor: finite-n prediction-error experiments and direct sampling of
the Brownian-functional limit laws they converge to."""

from .brownian import (
    CANONICAL_K1,
    CANONICAL_K2,
    BmPath,
    ConstantEstimate,
    ConstantsReport,
    LimitParams,
    estimate_constants,
    ito_integral,
    limit_sample,
    limit_sample_batch,
    mse_limit_formula,
    time_integral_sq,
)
from .errors import (
    ConfigError,
    DegenerateRateError,
    NotStartedError,
    PathTooShortError,
    ReconstructionError,
    ResamplePathError,
)
from .innovations import FAMILIES, InnovationSpec, derived_correlation, draw_pairs
from .linear_process import (
    FILTER_FAMILIES,
    Filter,
    FilterSpec,
    Trajectory,
    decompose,
    generate_path,
    materialize_filter,
    stationary_burn_in,
)
from .monte_carlo import (
    STATISTICS,
    ExperimentConfig,
    McSummary,
    ape_slope,
    cross_moment,
    limit_distribution_check,
    limit_target,
    run,
    sample_statistics,
    stationary_comparison,
)
from .rls import NeumaierSum, PathStats, RlsState, run_path
from .streams import ROLE_BM, ROLE_CONSTANTS, ROLE_PATH, substream

__version__ = "0.1.0"

__all__ = [
    "BmPath",
    "CANONICAL_K1",
    "CANONICAL_K2",
    "ConfigError",
    "ConstantEstimate",
    "ConstantsReport",
    "DegenerateRateError",
    "ExperimentConfig",
    "FAMILIES",
    "FILTER_FAMILIES",
    "Filter",
    "FilterSpec",
    "InnovationSpec",
    "LimitParams",
    "McSummary",
    "NeumaierSum",
    "NotStartedError",
    "PathStats",
    "PathTooShortError",
    "ReconstructionError",
    "ResamplePathError",
    "RlsState",
    "ROLE_BM",
    "ROLE_CONSTANTS",
    "ROLE_PATH",
    "STATISTICS",
    "Trajectory",
    "ape_slope",
    "cross_moment",
    "decompose",
    "derived_correlation",
    "draw_pairs",
    "estimate_constants",
    "generate_path",
    "ito_integral",
    "limit_distribution_check",
    "limit_sample",
    "limit_sample_batch",
    "limit_target",
    "materialize_filter",
    "mse_limit_formula",
    "run",
    "run_path",
    "sample_statistics",
    "stationary_burn_in",
    "stationary_comparison",
    "substream",
    "time_integral_sq",
]
