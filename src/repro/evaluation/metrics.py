"""Evaluation metrics (Section 6.1, "Evaluation metrics").

The paper reports six quantities; each has a function here:

1. total query time saved           → :func:`total_time_saved_ns`
2. query time improvement (%)      → :func:`improvement_pct`
3. promoted data (%)               → :func:`promoted_percentage`
4. storage space increase (%)      → :func:`relative_increase_pct`
5. node reduction (%)              → :func:`node_reduction_pct`
6. insert time increase (%)        → :func:`relative_increase_pct`

Level bookkeeping is per key, on arrays: ``index.key_levels(keys)`` is
the level of every key of a sorted key set, aligned with it, from one
batch lookup.  With ``before`` taken on the original index and
``after`` on the CSV-enhanced one, a key is promotable when
``before >= PROMOTABLE_LEVEL`` (level 3 or deeper) and promoted when
``after < before`` (CSV moved it to a shallower level).
"""

from __future__ import annotations

import numpy as np


__all__ = [
    "PROMOTABLE_LEVEL",
    "promoted_percentage",
    "relative_increase_pct",
    "improvement_pct",
    "total_time_saved_ns",
    "node_reduction_pct",
]

#: Keys at this level or deeper count as "promotable" (paper: levels 3+).
PROMOTABLE_LEVEL = 3


def promoted_percentage(
    before: np.ndarray,
    after: np.ndarray,
    threshold: int = PROMOTABLE_LEVEL,
) -> float:
    """Promoted share of the promotable data (metric 3).

    *before* / *after* are aligned key levels.  Promotable = keys at
    ``threshold`` or deeper in *before*; promoted = those among them
    that moved up.
    """
    promotable = before >= threshold
    n_promotable = int(promotable.sum())
    if not n_promotable:
        return 0.0
    return 100.0 * int((promotable & (after < before)).sum()) / n_promotable


def relative_increase_pct(before: float, after: float) -> float:
    """Generic ``(after - before) / before`` in percent (metrics 4/6)."""
    if before == 0:
        return 0.0
    return 100.0 * (after - before) / before


def improvement_pct(avg_before: float, avg_after: float) -> float:
    """Relative query-time improvement (metric 2); positive = faster."""
    if avg_before == 0:
        return 0.0
    return 100.0 * (avg_before - avg_after) / avg_before


def total_time_saved_ns(total_before_ns: float, total_after_ns: float) -> float:
    """Total query time saved (metric 1)."""
    return total_before_ns - total_after_ns


def node_reduction_pct(
    node_levels_before: list[int],
    node_levels_after: list[int],
    threshold: int = PROMOTABLE_LEVEL,
) -> float:
    """Node reduction relative to the original deep nodes (metric 5).

    The paper reports nodes removed as a percentage of the nodes at
    levels ≥ 3 of the original index.
    """
    deep_before = sum(1 for level in node_levels_before if level >= threshold)
    if deep_before == 0:
        return 0.0
    removed = len(node_levels_before) - len(node_levels_after)
    return 100.0 * removed / deep_before
