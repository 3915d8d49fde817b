"""Read-write workload execution (Section 6.3 / Fig. 10).

The driver inserts the held-out half of a dataset in batches, each a
per-key ``insert`` loop, into two indexes in parallel — one
CSV-enhanced, one original — and measures, after every batch, the
query cost over the promoted keys, the storage sizes, and the
wall-clock insertion times.  CSV is *not* re-run between batches,
exactly as in the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.cost_model import CostConstants
from ..indexes.base import LearnedIndex
from .readonly import QueryProfile, profile_queries

__all__ = ["BatchObservation", "run_insert_batches"]


@dataclass(frozen=True)
class BatchObservation:
    """Measurements taken after one insertion batch.

    ``batch_index`` 0 is the state before any insertion.
    """

    batch_index: int
    inserted_so_far: int
    enhanced_profile: QueryProfile
    original_profile: QueryProfile
    enhanced_size_bytes: int
    original_size_bytes: int
    enhanced_insert_seconds: float
    original_insert_seconds: float

    @property
    def total_time_saved_ns(self) -> float:
        return (
            self.original_profile.total_simulated_ns
            - self.enhanced_profile.total_simulated_ns
        )

    @property
    def storage_increase_pct(self) -> float:
        if self.original_size_bytes == 0:
            return 0.0
        return 100.0 * (self.enhanced_size_bytes - self.original_size_bytes) / self.original_size_bytes

    @property
    def insert_time_increase_pct(self) -> float:
        if self.original_insert_seconds == 0.0:
            return 0.0
        return 100.0 * (
            self.enhanced_insert_seconds - self.original_insert_seconds
        ) / self.original_insert_seconds


def _timed_inserts(index: LearnedIndex, batch: np.ndarray) -> float:
    """Wall-time one insertion batch, key by key.

    Per-key :meth:`~repro.indexes.base.LearnedIndex.insert` *is* Fig.
    10's protocol: the figure shows how individually inserted keys
    degrade (or reuse the gaps of) each structure, which a bulk merge
    would rebuild away.
    """
    start = time.perf_counter()
    for key in batch.tolist():
        index.insert(key, key)
    return time.perf_counter() - start


def run_insert_batches(
    enhanced: LearnedIndex,
    original: LearnedIndex,
    batches: tuple[np.ndarray, ...],
    query_keys: np.ndarray,
    constants: CostConstants | None = None,
) -> list[BatchObservation]:
    """Drive the paper's batched-insertion protocol on both indexes.

    Returns one :class:`BatchObservation` per state (before the first
    batch and after each batch).
    """
    observations = [
        BatchObservation(
            batch_index=0,
            inserted_so_far=0,
            enhanced_profile=profile_queries(enhanced, query_keys, constants),
            original_profile=profile_queries(original, query_keys, constants),
            enhanced_size_bytes=enhanced.size_bytes(),
            original_size_bytes=original.size_bytes(),
            enhanced_insert_seconds=0.0,
            original_insert_seconds=0.0,
        )
    ]
    inserted = 0
    for batch_no, batch in enumerate(batches, start=1):
        enhanced_seconds = _timed_inserts(enhanced, batch)
        original_seconds = _timed_inserts(original, batch)
        inserted += int(batch.size)
        observations.append(
            BatchObservation(
                batch_index=batch_no,
                inserted_so_far=inserted,
                enhanced_profile=profile_queries(enhanced, query_keys, constants),
                original_profile=profile_queries(original, query_keys, constants),
                enhanced_size_bytes=enhanced.size_bytes(),
                original_size_bytes=original.size_bytes(),
                enhanced_insert_seconds=enhanced_seconds,
                original_insert_seconds=original_seconds,
            )
        )
    return observations
