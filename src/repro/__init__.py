"""repro — Learned Indexes with Distribution Smoothing via Virtual Points.

A from-scratch Python reproduction of the EDBT 2025 paper by
Amarasinghe, Choudhury, Qi and Bailey (arXiv:2408.06134): CDF
smoothing via virtual points (Algorithm 1), the CSV optimisation for
hierarchical learned indexes (Algorithm 2), the ALEX / LIPP / SALI
substrates it integrates with, synthetic analogues of the evaluation
datasets, and the full experiment harness.

Quickstart::

    import numpy as np
    from repro import smooth_keys, LippIndex, apply_csv, CsvConfig, adapter_for

    keys = np.unique(np.random.default_rng(0).integers(0, 10**6, 50_000))
    result = smooth_keys(keys, alpha=0.1)          # Algorithm 1
    print(result.loss_improvement_pct)

    index = LippIndex.build(keys)                  # a learned index
    report = apply_csv(adapter_for(index),         # Algorithm 2 (CSV)
                       CsvConfig(alpha=0.1))
    print(report.nodes_rebuilt, report.keys_promoted)
"""

from .core import (
    CostConstants,
    CsvConfig,
    CsvReport,
    GapInsertionLayout,
    InvalidKeysError,
    LinearModel,
    PoisoningResult,
    ReproError,
    SegmentStats,
    SmoothingBudgetError,
    SmoothingResult,
    apply_csv,
    build_gap_insertion,
    fit_linear,
    poison_keys,
    smooth_keys,
    smooth_keys_exhaustive,
    smooth_keys_quadratic,
    smooth_keys_weighted,
)
from .datasets import DATASETS, generate, load
from .evaluation import run_csv_experiment
from .indexes import (
    INDEX_FAMILIES,
    AlexIndex,
    BPlusTree,
    LippIndex,
    PGMIndex,
    QueryStats,
    RMIIndex,
    SaliIndex,
    SortedArrayIndex,
    adapter_for,
)
from .serving import IndexService, ShardRouter, plan_shards
from .store import DurableStore

__version__ = "1.0.0"

__all__ = [
    "AlexIndex",
    "BPlusTree",
    "CostConstants",
    "CsvConfig",
    "CsvReport",
    "DATASETS",
    "DurableStore",
    "GapInsertionLayout",
    "INDEX_FAMILIES",
    "IndexService",
    "InvalidKeysError",
    "LinearModel",
    "LippIndex",
    "PGMIndex",
    "PoisoningResult",
    "QueryStats",
    "RMIIndex",
    "ReproError",
    "SaliIndex",
    "SegmentStats",
    "ShardRouter",
    "SmoothingBudgetError",
    "SmoothingResult",
    "SortedArrayIndex",
    "adapter_for",
    "apply_csv",
    "build_gap_insertion",
    "fit_linear",
    "generate",
    "load",
    "plan_shards",
    "poison_keys",
    "run_csv_experiment",
    "smooth_keys",
    "smooth_keys_exhaustive",
    "smooth_keys_quadratic",
    "smooth_keys_weighted",
    "__version__",
]
