"""Evaluation metrics (Section 6.1, "Evaluation metrics").

The paper reports six quantities; each has a function here:

1. total query time saved           → :func:`total_time_saved_ns`
2. query time improvement (%)      → :func:`improvement_pct`
3. promoted data (%)               → :func:`promoted_percentage`
4. storage space increase (%)      → :func:`relative_increase_pct`
5. node reduction (%)              → :func:`node_reduction_pct`
6. insert time increase (%)        → :func:`relative_increase_pct`

Level bookkeeping uses *level snapshots* — key→level maps captured
before and after CSV — because "promoted" is defined per key: a key
counts as promotable when it sits at level 3 or deeper in the original
index, and as promoted when CSV moved it to a shallower level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


__all__ = [
    "PROMOTABLE_LEVEL",
    "LevelSnapshot",
    "promoted_keys",
    "promoted_percentage",
    "relative_increase_pct",
    "improvement_pct",
    "total_time_saved_ns",
    "node_reduction_pct",
]

#: Keys at this level or deeper count as "promotable" (paper: levels 3+).
PROMOTABLE_LEVEL = 3


@dataclass(frozen=True)
class LevelSnapshot:
    """key → level map of an index at one point in time."""

    levels: dict[int, int]

    @classmethod
    def capture(cls, index, keys: np.ndarray) -> "LevelSnapshot":
        return cls({int(k): index.key_level(int(k)) for k in np.asarray(keys)})

    def promotable(self, threshold: int = PROMOTABLE_LEVEL) -> set[int]:
        """Keys at *threshold* or deeper."""
        return {k for k, level in self.levels.items() if level >= threshold}

    def __len__(self) -> int:
        return len(self.levels)


def promoted_keys(before: LevelSnapshot, after: LevelSnapshot) -> set[int]:
    """Keys strictly shallower after CSV than before."""
    out = set()
    for key, level_before in before.levels.items():
        level_after = after.levels.get(key)
        if level_after is not None and level_after < level_before:
            out.add(key)
    return out


def promoted_percentage(
    before: LevelSnapshot,
    after: LevelSnapshot,
    threshold: int = PROMOTABLE_LEVEL,
) -> float:
    """Promoted share of the promotable data (metric 3).

    Promotable = keys at ``threshold`` or deeper in the original
    index; promoted = those among them that moved up.
    """
    promotable = before.promotable(threshold)
    if not promotable:
        return 0.0
    moved = promoted_keys(before, after)
    return 100.0 * len(promotable & moved) / len(promotable)


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
