"""Experiment drivers, metrics, and reporting for reproducing the
paper's evaluation."""

from ..indexes import CSV_FAMILIES
from .metrics import (
    PROMOTABLE_LEVEL,
    improvement_pct,
    node_reduction_pct,
    promoted_percentage,
    relative_increase_pct,
    total_time_saved_ns,
)
from .reporting import ascii_table, format_float
from .runner import (
    ALPHAS,
    CsvExperimentRow,
    LevelTimeRow,
    run_alpha_sweep,
    run_cardinality_sweep,
    run_csv_experiment,
    run_level_query_times,
    run_readwrite_experiment,
)

__all__ = [
    "ALPHAS",
    "CSV_FAMILIES",
    "CsvExperimentRow",
    "LevelTimeRow",
    "PROMOTABLE_LEVEL",
    "ascii_table",
    "format_float",
    "improvement_pct",
    "node_reduction_pct",
    "promoted_percentage",
    "relative_increase_pct",
    "run_alpha_sweep",
    "run_cardinality_sweep",
    "run_csv_experiment",
    "run_level_query_times",
    "run_readwrite_experiment",
    "total_time_saved_ns",
]
