"""Core algorithms: CDF smoothing (Algorithm 1), CSV (Algorithm 2),
cost model (Eq. 22), and the related baselines/ablations."""

from .candidates import (
    all_free_values,
    derivative_curve,
    enumerate_gaps,
    filtered_candidates,
    loss_curve,
)
from .cost_model import (
    CostConstants,
    calibrate_from_samples,
    expected_search_steps,
    node_cost,
    rebuild_cost_delta,
)
from .csv_algorithm import (
    CsvAdapter,
    CsvConfig,
    CsvNodeRecord,
    CsvReport,
    apply_csv,
)
from .derivative import GapContext, loss_derivative
from .exceptions import (
    CalibrationError,
    IndexStateError,
    InvalidKeysError,
    ReproError,
    SmoothingBudgetError,
)
from .gap_insertion import GapInsertionLayout, build_gap_insertion
from .linear_model import LinearModel, QuadraticModel, fit_linear, fit_quadratic
from .loss import exact_refit_loss, exact_refit_model, fit_and_loss, hierarchy_loss, sse_loss
from .poisoning import PoisoningResult, poison_keys
from .quadratic_smoothing import (
    QuadraticSmoothingResult,
    quadratic_fit_and_loss,
    smooth_keys_quadratic,
)
from .segment_stats import CandidateEvaluation, SegmentStats, validate_keys
from .weighted_smoothing import (
    WeightedSmoothingResult,
    smooth_keys_weighted,
    weighted_loss,
)
from .smoothing import (
    SmoothingResult,
    resolve_budget,
    smooth_keys,
    smooth_keys_exhaustive,
    smooth_keys_fixed_model,
)

__all__ = [
    "CalibrationError",
    "CandidateEvaluation",
    "CostConstants",
    "CsvAdapter",
    "CsvConfig",
    "CsvNodeRecord",
    "CsvReport",
    "GapContext",
    "GapInsertionLayout",
    "IndexStateError",
    "InvalidKeysError",
    "LinearModel",
    "PoisoningResult",
    "QuadraticModel",
    "QuadraticSmoothingResult",
    "ReproError",
    "SegmentStats",
    "SmoothingBudgetError",
    "SmoothingResult",
    "WeightedSmoothingResult",
    "all_free_values",
    "apply_csv",
    "build_gap_insertion",
    "calibrate_from_samples",
    "derivative_curve",
    "enumerate_gaps",
    "exact_refit_loss",
    "exact_refit_model",
    "expected_search_steps",
    "filtered_candidates",
    "fit_and_loss",
    "fit_linear",
    "fit_quadratic",
    "hierarchy_loss",
    "loss_curve",
    "loss_derivative",
    "node_cost",
    "poison_keys",
    "quadratic_fit_and_loss",
    "rebuild_cost_delta",
    "resolve_budget",
    "smooth_keys",
    "smooth_keys_exhaustive",
    "smooth_keys_fixed_model",
    "smooth_keys_quadratic",
    "smooth_keys_weighted",
    "sse_loss",
    "validate_keys",
    "weighted_loss",
]
