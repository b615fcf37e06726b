"""Causal analysis of daily sleep-score and mood-log time series.

The pipeline: ingest the two CSV schemas onto a contiguous daily grid,
check stationarity, pick a lag order, fit a VAR by least squares, run
Granger causality tests, and trace impulse responses with bootstrap
confidence bands.  A seeded VAR process simulator provides ground truth
for validating every stage.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DataError,
    ModelFormatError,
    NotPositiveDefiniteError,
    NumericError,
    SingularDesignError,
    SleepVarError,
)
from .frame import (
    MOOD_VARIABLES,
    SeriesFrame,
    SummaryStats,
    describe,
    impute,
    ingest_mood,
    ingest_sleep,
    merge,
    read_frame_csv,
    write_frame_csv,
)
from .stationarity import (
    AdfResult,
    Decomposition,
    DifferencingDecision,
    PacfResult,
    adf_test,
    classical_decompose,
    difference,
    pacf,
    recommend_differencing,
)
from .var import (
    OrderSelection,
    VarFit,
    build_lagged_design,
    fit_var,
    load_model,
    save_model,
    select_order,
)
from .inference import GrangerResult, granger_all_pairs, granger_test
from .irf import IrfResult, irf_with_bands, ma_coefficients, orthogonalized_irf
from .simulate import (
    VarProcessSpec,
    load_process_spec,
    random_walk,
    simulate_var,
    substream,
    white_noise,
)

__all__ = [
    "__version__",
    "SleepVarError", "DataError", "NumericError", "SingularDesignError",
    "NotPositiveDefiniteError", "ConvergenceError", "ModelFormatError",
    "SeriesFrame", "SummaryStats", "MOOD_VARIABLES",
    "ingest_sleep", "ingest_mood", "merge", "impute", "describe",
    "read_frame_csv", "write_frame_csv",
    "AdfResult", "DifferencingDecision", "Decomposition", "PacfResult",
    "adf_test", "recommend_differencing", "difference", "classical_decompose", "pacf",
    "VarFit", "OrderSelection",
    "build_lagged_design", "fit_var", "select_order",
    "save_model", "load_model",
    "GrangerResult", "granger_test", "granger_all_pairs",
    "IrfResult", "ma_coefficients", "orthogonalized_irf", "irf_with_bands",
    "VarProcessSpec", "simulate_var", "random_walk", "white_noise",
    "substream", "load_process_spec",
]
