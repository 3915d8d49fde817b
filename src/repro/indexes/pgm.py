"""PGM-style piecewise-linear index (Ferragina & Vinciguerra [6]).

A one-pass greedy piecewise-linear approximation (PLA) with a maximum
error bound ``epsilon``: while scanning keys in order, a segment keeps
the cone of slopes that keep every covered point within ±ε of the
line through the segment origin; when the cone empties, the segment is
closed and a new one starts.  Levels are built recursively over the
segments' first keys until one segment remains.

Besides being the classical error-bounded baseline, the segmentation
is reused by the SALI substrate to flatten hot subtrees
(:mod:`repro.indexes.sali`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from ..core.exceptions import IndexStateError
from .base import (
    KEY_BYTES,
    NODE_HEADER_BYTES,
    VALUE_BYTES,
    BatchQueryStats,
    LearnedIndex,
    QueryStats,
    _as_query_array,
    prepare_key_values,
)

__all__ = ["PlaSegment", "build_pla_segments", "PGMIndex"]


@dataclass(frozen=True)
class PlaSegment:
    """One linear segment covering positions [first_pos, last_pos]."""

    first_key: int
    slope: float
    intercept: float
    first_pos: int
    last_pos: int

    def predict(self, key: int) -> int:
        """Predicted position of *key*, clamped to the segment range."""
        pos = int(round(self.slope * (key - self.first_key) + self.intercept))
        return min(max(pos, self.first_pos), self.last_pos)


def build_pla_segments(keys: np.ndarray, epsilon: int = 16) -> list[PlaSegment]:
    """Greedy one-pass PLA with error bound ±*epsilon* positions.

    Maintains the feasible slope interval ``[lo, hi]``; a point that
    empties the interval closes the current segment.  Guarantees
    ``|predict(k) - pos(k)| <= epsilon`` for every covered key.
    """
    if epsilon < 0:
        raise IndexStateError("epsilon must be >= 0")
    n = int(keys.size)
    if n == 0:
        return []
    segments: list[PlaSegment] = []
    start = 0
    while start < n:
        origin_key = int(keys[start])
        lo, hi = -np.inf, np.inf
        end = start + 1
        while end < n:
            dx = float(int(keys[end]) - origin_key)
            if dx <= 0:
                raise IndexStateError("keys must be strictly increasing")
            dy = float(end - start)
            cand_lo = (dy - epsilon) / dx
            cand_hi = (dy + epsilon) / dx
            new_lo = max(lo, cand_lo)
            new_hi = min(hi, cand_hi)
            if new_lo > new_hi:
                break
            lo, hi = new_lo, new_hi
            end += 1
        if end == start + 1:
            slope = 0.0
        else:
            slope = (lo + hi) / 2.0
        segments.append(
            PlaSegment(
                first_key=origin_key,
                slope=slope,
                intercept=float(start),
                first_pos=start,
                last_pos=end - 1,
            )
        )
        start = end
    return segments


class PGMIndex(LearnedIndex):
    """Static multi-level PGM index over sorted unique keys.

    Lookups descend the segment hierarchy (each level costs one
    traversal plus an ε-bounded local search) and finish with a binary
    search confined to ±ε positions around the prediction.  Static:
    bulk-loaded and looked up, never written to.
    """

    name = "pgm"

    def __init__(self, keys: np.ndarray, values: np.ndarray, epsilon: int):
        self._epsilon = int(epsilon)
        self._keys = keys
        self._values = values
        # levels[0] indexes the data; levels[i>0] index level i-1's
        # segment first-keys.  Built until a level has one segment.
        self._levels: list[list[PlaSegment]] = []
        self._level_keys: list[np.ndarray] = []
        current = keys
        while True:
            segments = build_pla_segments(current, self._epsilon)
            self._levels.append(segments)
            self._level_keys.append(current)
            if len(segments) <= 1:
                break
            current = np.asarray([s.first_key for s in segments], dtype=np.int64)
        # Struct-of-arrays view of each level's segments for the
        # vectorised batch descent (first_key, slope, intercept,
        # first_pos, last_pos parallel arrays).
        self._level_params = [
            (
                np.asarray([s.first_key for s in segs], dtype=np.int64),
                np.asarray([s.slope for s in segs], dtype=np.float64),
                np.asarray([s.intercept for s in segs], dtype=np.float64),
                np.asarray([s.first_pos for s in segs], dtype=np.int64),
                np.asarray([s.last_pos for s in segs], dtype=np.int64),
            )
            for segs in self._levels
        ]

    @classmethod
    def build(cls, keys, values=None, epsilon: int = 16) -> "PGMIndex":
        arr, vals = prepare_key_values(keys, values)
        return cls(arr, vals, epsilon)

    def _bounded_search(self, level_keys: np.ndarray, seg: PlaSegment, key: int) -> tuple[int, int]:
        predicted = seg.predict(key)
        lo = max(predicted - self._epsilon, 0)
        hi = min(predicted + self._epsilon + 1, int(level_keys.size))
        pos = bisect.bisect_right(level_keys.tolist(), key, lo, hi) - 1
        steps = max(1, int(np.ceil(np.log2(hi - lo + 1))))
        return max(pos, 0), steps

    def lookup_stats(self, key: int) -> QueryStats:
        key = int(key)
        levels_used = 0
        steps = 0
        # Descend from the top level to level 0.
        top = len(self._levels) - 1
        seg = self._levels[top][0]
        for level in range(top, -1, -1):
            levels_used += 1
            level_keys = self._level_keys[level]
            pos, level_steps = self._bounded_search(level_keys, seg, key)
            steps += level_steps
            if level == 0:
                found = pos < self._keys.size and int(self._keys[pos]) == key
                value = int(self._values[pos]) if found else None
                return QueryStats(key=key, found=found, value=value, levels=levels_used, search_steps=steps)
            # pos is the child segment index at the level below.
            child_segments = self._levels[level - 1]
            seg_idx = min(pos, len(child_segments) - 1)
            # Segment first positions at level-1 are indexed by this
            # level's keys one-to-one.
            seg = child_segments[seg_idx]
        raise AssertionError("unreachable")

    def lookup_many(self, keys) -> BatchQueryStats:
        """Vectorised batch descent of the segment hierarchy.

        Every level costs four array ops for the whole batch: gather
        the per-query segment parameters, predict, clamp the ε-window,
        and one full-array ``searchsorted`` whose result is clipped
        into the window (equivalent to the scalar bounded bisect, since
        the level keys are globally sorted).
        """
        q = _as_query_array(keys)
        m = q.size
        steps = np.zeros(m, dtype=np.int64)
        seg_idx = np.zeros(m, dtype=np.int64)  # top level has one segment
        top = len(self._levels) - 1
        for level in range(top, -1, -1):
            first_key, slope, intercept, first_pos, last_pos = self._level_params[level]
            level_keys = self._level_keys[level]
            delta = (q - first_key[seg_idx]).astype(np.float64)
            predicted = np.rint(slope[seg_idx] * delta + intercept[seg_idx]).astype(np.int64)
            predicted = np.clip(predicted, first_pos[seg_idx], last_pos[seg_idx])
            lo = np.maximum(predicted - self._epsilon, 0)
            hi = np.minimum(predicted + self._epsilon + 1, int(level_keys.size))
            pos = np.clip(np.searchsorted(level_keys, q, side="right"), lo, hi) - 1
            steps += np.maximum(1, np.ceil(np.log2(hi - lo + 1)).astype(np.int64))
            pos = np.maximum(pos, 0)
            if level == 0:
                n = int(self._keys.size)
                found = np.zeros(m, dtype=bool)
                in_range = pos < n
                found[in_range] = self._keys[pos[in_range]] == q[in_range]
                values = np.zeros(m, dtype=np.int64)
                values[found] = self._values[pos[found]]
                levels_used = np.full(m, len(self._levels), dtype=np.int64)
                return BatchQueryStats(
                    keys=q, found=found, values=values, levels=levels_used, search_steps=steps
                )
            seg_idx = np.minimum(pos, len(self._levels[level - 1]) - 1)
        raise AssertionError("unreachable")

    @property
    def n_keys(self) -> int:
        return int(self._keys.size)

    def height(self) -> int:
        return len(self._levels)

    def node_count(self) -> int:
        return sum(len(level) for level in self._levels)

    def size_bytes(self) -> int:
        seg_bytes = KEY_BYTES + 8 + 8 + 8  # first_key, slope, intercept, pos
        total = self._keys.size * (KEY_BYTES + VALUE_BYTES)
        for level in self._levels:
            total += NODE_HEADER_BYTES + len(level) * seg_bytes
        return total

    @property
    def epsilon(self) -> int:
        return self._epsilon

    @property
    def segment_count(self) -> int:
        """Number of data-level segments (a CDF-hardness measure)."""
        return len(self._levels[0])
