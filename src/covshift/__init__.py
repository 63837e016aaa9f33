"""Streaming detection of covariance-structure changes in vector time series.

Workflow: fit a TrainingSummary on a stable block (`fit_training`), pick an
alarm threshold from a false-alarm budget (`solve_threshold`), then feed new
observations to a `Detector` one at a time (`step`) or a block at a time
(`scan`).  After an alarm, `localize`
estimates where the change happened.  `simulate` provides synthetic streams
and Monte Carlo drivers for validating the analytics.
"""

from .calibrate import (
    CalibrationResult,
    EddBound,
    edd_upper_bound,
    g_value,
    min_detectable_change,
    solve_threshold,
    theoretical_arl,
)
from .detector import DetectionReport, Detector, DetectorConfig, StepResult, localize
from .errors import (
    CalibrationInfeasibleError,
    ConfigurationError,
    DataError,
    DegenerateVarianceError,
    DependenceTooStrongError,
    DetectorFinishedError,
    InsufficientTrainingError,
)
from .io import (
    load_summary,
    read_csv_matrix,
    read_jsonl_batches,
    read_jsonl_stream,
    save_summary,
)
from .simulate import (
    GeneratorSpec,
    McResult,
    PostChange,
    StreamGenerator,
    TrainingRecipe,
    build_q,
    change_norm_frobenius,
    dep_order_study,
    gen_stream,
    lag_trace_coefficients,
    ma_coefficients,
    ma_variance_factor,
    monte_carlo_arl,
    monte_carlo_edd,
    population_null_sd,
)
from .stats import (
    WindowState,
    profile_statistic,
    statistic_batch,
    statistic_windowed,
)
from .training import (
    FitConfig,
    StationarityResult,
    TraceTable,
    TrainingSummary,
    estimate_dep_order,
    estimate_null_sd,
    estimate_trace_cross,
    fit_training,
    stationarity_test,
)
from .weights import (
    WeightPlan,
    build_weight_plan,
    lag_weight_sums,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # weights
    "WeightPlan",
    "build_weight_plan",
    "lag_weight_sums",
    # statistics
    "WindowState",
    "profile_statistic",
    "statistic_batch",
    "statistic_windowed",
    # training
    "FitConfig",
    "StationarityResult",
    "TraceTable",
    "TrainingSummary",
    "estimate_dep_order",
    "estimate_null_sd",
    "estimate_trace_cross",
    "fit_training",
    "stationarity_test",
    # calibration
    "CalibrationResult",
    "EddBound",
    "edd_upper_bound",
    "g_value",
    "min_detectable_change",
    "solve_threshold",
    "theoretical_arl",
    # detection
    "DetectionReport",
    "Detector",
    "DetectorConfig",
    "StepResult",
    "localize",
    # simulation
    "GeneratorSpec",
    "McResult",
    "PostChange",
    "StreamGenerator",
    "TrainingRecipe",
    "build_q",
    "change_norm_frobenius",
    "dep_order_study",
    "gen_stream",
    "lag_trace_coefficients",
    "ma_coefficients",
    "ma_variance_factor",
    "monte_carlo_arl",
    "monte_carlo_edd",
    "population_null_sd",
    # io
    "load_summary",
    "read_csv_matrix",
    "read_jsonl_stream",
    "read_jsonl_batches",
    "save_summary",
    # errors
    "CalibrationInfeasibleError",
    "ConfigurationError",
    "DataError",
    "DegenerateVarianceError",
    "DependenceTooStrongError",
    "DetectorFinishedError",
    "InsufficientTrainingError",
]
