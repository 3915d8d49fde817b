"""Experiment drivers that regenerate the paper's tables and figures.

Each public function produces plain dataclass rows; the benchmark
harness under ``benchmarks/`` formats them into the same tables/series
the paper reports and asserts the expected *shape* (who wins, trends),
not absolute nanoseconds (see DESIGN.md §3-4).

All query profiling goes through the vectorised batch engine
(:func:`repro.workloads.readonly.profile_queries` →
``LearnedIndex.lookup_many``), so read wall time is dominated by the
structures themselves rather than per-key Python dispatch.  Fig. 10's
insertion batches are per-key ``insert`` loops
(:mod:`repro.workloads.readwrite`), as in the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.cost_model import CostConstants
from ..core.csv_algorithm import CsvConfig, apply_csv
from ..datasets.loader import downsample, load
from ..indexes import adapter_for, family_class
from ..workloads.generators import sample_queries, split_read_write
from ..workloads.readonly import profile_queries
from ..workloads.readwrite import BatchObservation, run_insert_batches
from .metrics import (
    PROMOTABLE_LEVEL,
    improvement_pct,
    node_reduction_pct,
    promoted_percentage,
    relative_increase_pct,
)

__all__ = [
    "ALPHAS",
    "CsvExperimentRow",
    "LevelTimeRow",
    "run_csv_experiment",
    "run_alpha_sweep",
    "run_cardinality_sweep",
    "run_level_query_times",
    "run_readwrite_experiment",
]

#: The paper's smoothing-threshold grid (Section 6.1).
ALPHAS = (0.05, 0.1, 0.2, 0.4, 0.8)

#: Cap on the promoted-key query sample per experiment (keeps pure
#: Python runtimes sane; the averages converge well before this).
MAX_QUERY_SAMPLE = 3000


@dataclass(frozen=True)
class CsvExperimentRow:
    """One (index, dataset, n, alpha) cell of the Figs. 6-8 grids."""

    index_family: str
    dataset: str
    n: int
    alpha: float
    promotable_keys: int
    promoted_keys: int
    #: Keys CSV's merged nodes pushed a level down (``CsvReport.
    #: keys_demoted``); the paper's metrics count promoted keys only.
    demoted_keys: int
    #: Every key's level summed, before / after CSV: the whole key
    #: set's depth, which the promoted-key metrics do not see.
    levels_sum_before: int
    levels_sum_after: int
    promoted_pct: float
    avg_query_ns_before: float
    avg_query_ns_after: float
    query_improvement_pct: float
    total_time_saved_ns: float
    storage_increase_pct: float
    node_reduction_pct: float
    preprocessing_seconds: float
    virtual_points: int
    nodes_rebuilt: int
    height_before: int
    height_after: int


def _build(family: str, keys: np.ndarray):
    return family_class(family).build(keys)


def run_csv_experiment(
    family: str,
    dataset: str,
    n: int | None = None,
    alpha: float = 0.1,
    seed: int = 0,
    constants: CostConstants | None = None,
    csv_config: CsvConfig | None = None,
    keys: np.ndarray | None = None,
) -> CsvExperimentRow:
    """Build → snapshot → CSV → snapshot → measure, for one setting.

    Two structurally identical indexes are built: one is optimised in
    place by CSV, the other stays original so "before" query costs are
    measured on the authentic structure.  Queries target the promoted
    keys, as in the paper's evaluation.
    """
    consts = constants or CostConstants()
    if keys is None:
        keys = load(dataset, n)
    n = int(keys.size)
    rng = np.random.default_rng(seed)

    original = _build(family, keys)
    enhanced = _build(family, keys)
    size_before = original.size_bytes()
    nodes_before = original.node_levels()
    height_before = original.height()
    levels_before = original.key_levels(keys)

    config = csv_config or CsvConfig(alpha=alpha)
    start = time.perf_counter()
    report = apply_csv(adapter_for(enhanced, consts), config)
    preprocessing = time.perf_counter() - start

    levels_after = enhanced.key_levels(keys)
    promoted = keys[levels_after < levels_before]

    if promoted.size:
        queries = sample_queries(promoted, min(MAX_QUERY_SAMPLE, promoted.size), rng, replace=False)
        before_profile = profile_queries(original, queries, consts)
        after_profile = profile_queries(enhanced, queries, consts)
        avg_before = before_profile.avg_simulated_ns
        avg_after = after_profile.avg_simulated_ns
        total_saved = (avg_before - avg_after) * promoted.size
    else:
        avg_before = avg_after = 0.0
        total_saved = 0.0

    return CsvExperimentRow(
        index_family=family,
        dataset=dataset,
        n=n,
        alpha=config.alpha,
        promotable_keys=int((levels_before >= PROMOTABLE_LEVEL).sum()),
        promoted_keys=int(promoted.size),
        demoted_keys=report.keys_demoted,
        levels_sum_before=int(levels_before.sum()),
        levels_sum_after=int(levels_after.sum()),
        promoted_pct=promoted_percentage(levels_before, levels_after),
        avg_query_ns_before=avg_before,
        avg_query_ns_after=avg_after,
        query_improvement_pct=improvement_pct(avg_before, avg_after),
        total_time_saved_ns=total_saved,
        storage_increase_pct=relative_increase_pct(size_before, enhanced.size_bytes()),
        node_reduction_pct=node_reduction_pct(nodes_before, enhanced.node_levels()),
        preprocessing_seconds=preprocessing,
        virtual_points=report.virtual_points_inserted,
        nodes_rebuilt=report.nodes_rebuilt,
        height_before=height_before,
        height_after=enhanced.height(),
    )


def run_alpha_sweep(
    family: str,
    dataset: str,
    alphas: tuple[float, ...] = ALPHAS,
    n: int | None = None,
    seed: int = 0,
    constants: CostConstants | None = None,
) -> list[CsvExperimentRow]:
    """The α sweep behind Figs. 6, 7, 8 and Tables 3, 4."""
    return [
        run_csv_experiment(family, dataset, n=n, alpha=alpha, seed=seed, constants=constants)
        for alpha in alphas
    ]


def run_cardinality_sweep(
    family: str,
    dataset: str,
    fractions: tuple[float, ...] = (0.0625, 0.125, 0.25, 0.5, 1.0),
    full_n: int | None = None,
    alpha: float = 0.1,
    seed: int = 0,
    constants: CostConstants | None = None,
) -> list[CsvExperimentRow]:
    """The dataset-cardinality sweep behind Fig. 9."""
    full = load(dataset, full_n)
    rows = []
    for fraction in fractions:
        target = max(10, int(full.size * fraction))
        keys = downsample(full, target)
        rows.append(
            run_csv_experiment(
                family, dataset, alpha=alpha, seed=seed, constants=constants, keys=keys
            )
        )
    return rows


@dataclass(frozen=True)
class LevelTimeRow:
    """Average query cost of the keys stored at one level (Fig. 1)."""

    dataset: str
    level: int
    n_keys_at_level: int
    avg_simulated_ns: float


def run_level_query_times(
    family: str,
    dataset: str,
    n: int | None = None,
    seed: int = 0,
    constants: CostConstants | None = None,
    per_level_sample: int = 500,
) -> list[LevelTimeRow]:
    """Per-level average query time on one dataset (Fig. 1)."""
    consts = constants or CostConstants()
    keys = load(dataset, n)
    index = _build(family, keys)
    rng = np.random.default_rng(seed)
    levels = index.key_levels(keys)
    # One stable sort buckets the keys by level, ascending within each.
    by_level = keys[np.argsort(levels, kind="stable")]
    counts = np.bincount(levels)
    ends = np.cumsum(counts)
    rows = []
    for level in np.flatnonzero(counts).tolist():
        bucket = by_level[ends[level] - counts[level] : ends[level]]
        sample = sample_queries(bucket, min(per_level_sample, bucket.size), rng, replace=False)
        profile = profile_queries(index, sample, consts)
        rows.append(
            LevelTimeRow(
                dataset=dataset,
                level=level,
                n_keys_at_level=int(bucket.size),
                avg_simulated_ns=profile.avg_simulated_ns,
            )
        )
    return rows


def run_readwrite_experiment(
    family: str,
    dataset: str,
    n: int | None = None,
    alpha: float = 0.1,
    n_batches: int = 5,
    seed: int = 0,
    constants: CostConstants | None = None,
) -> list[BatchObservation]:
    """The read-write workload behind Fig. 10.

    Builds original + enhanced indexes on a random half of the
    dataset, applies CSV once to the enhanced one, then inserts the
    other half in ``0.1 n`` batches into both, profiling the promoted
    keys after every batch.
    """
    consts = constants or CostConstants()
    keys = load(dataset, n)
    rng = np.random.default_rng(seed)
    split = split_read_write(keys, rng, n_batches=n_batches)

    original = _build(family, split.build_keys)
    enhanced = _build(family, split.build_keys)
    before = original.key_levels(split.build_keys)
    apply_csv(adapter_for(enhanced, consts), CsvConfig(alpha=alpha))
    after = enhanced.key_levels(split.build_keys)

    promoted = split.build_keys[after < before]
    if promoted.size == 0:
        # Fall back to the deepest original keys so the workload still
        # exercises the region CSV targets.
        promoted = split.build_keys[before >= PROMOTABLE_LEVEL]
    if promoted.size == 0:
        promoted = split.build_keys
    queries = sample_queries(
        promoted, min(MAX_QUERY_SAMPLE, promoted.size), rng, replace=False
    )
    return run_insert_batches(enhanced, original, split.batches, queries, consts)
