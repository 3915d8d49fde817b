"""Flattened subtree node for SALI (Ge et al. [9]).

SALI identifies frequently accessed subtrees and *flattens* them: the
subtree's keys move into a single node indexed by an error-bounded
piecewise-linear segmentation (the same construction as the PGM
index, Section 2.2).  A lookup then costs one traversal step into the
flattened node plus a segment search — this extra search step is the
trade-off the paper highlights when comparing CSV to SALI's own
flattening.

The node duck-types the parts of :class:`~repro.indexes.lipp.node.
LippNode` that the shared traversal/metric code touches (``children``,
``level``, ``iter_entries`` …) so it can live inside a LIPP subtree.
"""

from __future__ import annotations

import bisect
from typing import Iterator

import numpy as np

from ...core.exceptions import IndexStateError
from ..base import KEY_BYTES, NODE_HEADER_BYTES, VALUE_BYTES, WeakParent
from ..pgm import PlaSegment, build_pla_segments

__all__ = ["FlattenedNode"]

DEFAULT_EPSILON = 8

#: Bytes per PLA segment: first key + slope + intercept + position.
SEGMENT_BYTES = KEY_BYTES + 8 + 8 + 8


class FlattenedNode:
    """A PGM-segmented flat node replacing a hot LIPP subtree."""

    parent = WeakParent()

    __slots__ = (
        "keys",
        "values",
        "segments",
        "segment_first_keys",
        "_seg_first_key",
        "_seg_slope",
        "_seg_intercept",
        "_seg_first_pos",
        "_seg_last_pos",
        "epsilon",
        "level",
        "_parent",
        "parent_slot",
        "children",
        "n_subtree_keys",
        "access_count",
        "virtual_slots",
    )

    def __init__(self, keys: np.ndarray, values: np.ndarray, level: int, epsilon: int = DEFAULT_EPSILON):
        if keys.size == 0:
            raise IndexStateError("cannot flatten an empty subtree")
        self.keys = keys
        self.values = values
        self.epsilon = int(epsilon)
        self.level = level
        self.parent = None
        self.parent_slot: int | None = None
        #: Duck-typing shims so LIPP's generic walks terminate here.
        self.children: dict[int, object] = {}
        self.n_subtree_keys = int(keys.size)
        self.access_count = 0
        self.virtual_slots = 0
        self._rebuild_segments()

    def _rebuild_segments(self) -> None:
        self.segments = build_pla_segments(self.keys, self.epsilon)
        self.segment_first_keys = [seg.first_key for seg in self.segments]
        # Struct-of-arrays mirror for the vectorised batch lookup.
        self._seg_first_key = np.asarray(self.segment_first_keys, dtype=np.int64)
        self._seg_slope = np.asarray([s.slope for s in self.segments])
        self._seg_intercept = np.asarray([s.intercept for s in self.segments])
        self._seg_first_pos = np.asarray([s.first_pos for s in self.segments], dtype=np.int64)
        self._seg_last_pos = np.asarray([s.last_pos for s in self.segments], dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Slot-count equivalent (dense layout)."""
        return int(self.keys.size)

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    def lookup(self, key: int) -> tuple[bool, int | None, int]:
        """``(found, value, search_steps)``.

        Steps = locating the segment (binary search over segment first
        keys) + the ε-bounded search inside it.
        """
        key = int(key)
        seg_idx = bisect.bisect_right(self.segment_first_keys, key) - 1
        seg_idx = max(seg_idx, 0)
        seg: PlaSegment = self.segments[seg_idx]
        steps = max(1, int(np.ceil(np.log2(len(self.segments) + 1))))
        predicted = seg.predict(key)
        lo = max(predicted - self.epsilon, 0)
        hi = min(predicted + self.epsilon + 1, int(self.keys.size))
        pos = int(np.searchsorted(self.keys[lo:hi], key)) + lo
        steps += max(1, int(np.ceil(np.log2(hi - lo + 1))))
        if pos < self.keys.size and int(self.keys[pos]) == key:
            return True, int(self.values[pos]), steps
        return False, None, steps

    def lookup_batch(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised :meth:`lookup` over a query array.

        Returns ``(found, values, search_steps)`` parallel to
        *queries*; segment routing, prediction and the ε-bounded search
        are all array ops (the bounded bisect is a full-array
        ``searchsorted`` clipped into the window, valid because the
        keys are globally sorted).
        """
        q = np.asarray(queries, dtype=np.int64)
        m = int(q.size)
        seg_idx = np.maximum(np.searchsorted(self._seg_first_key, q, side="right") - 1, 0)
        seg_steps = max(1, int(np.ceil(np.log2(len(self.segments) + 1))))
        delta = (q - self._seg_first_key[seg_idx]).astype(np.float64)
        predicted = np.rint(
            self._seg_slope[seg_idx] * delta + self._seg_intercept[seg_idx]
        ).astype(np.int64)
        predicted = np.clip(predicted, self._seg_first_pos[seg_idx], self._seg_last_pos[seg_idx])
        lo = np.maximum(predicted - self.epsilon, 0)
        hi = np.minimum(predicted + self.epsilon + 1, int(self.keys.size))
        pos = np.clip(np.searchsorted(self.keys, q, side="left"), lo, hi)
        steps = seg_steps + np.maximum(1, np.ceil(np.log2(hi - lo + 1)).astype(np.int64))
        found = np.zeros(m, dtype=bool)
        in_range = pos < self.keys.size
        found[in_range] = self.keys[pos[in_range]] == q[in_range]
        values = np.zeros(m, dtype=np.int64)
        values[found] = self.values[pos[found]]
        return found, values, steps

    def insert(self, key: int, value: int) -> None:
        """Insert (rare path: flattening targets read-hot subtrees)."""
        key = int(key)
        pos = int(np.searchsorted(self.keys, key))
        if pos < self.keys.size and int(self.keys[pos]) == key:
            self.values[pos] = value
            return
        self.keys = np.insert(self.keys, pos, key)
        self.values = np.insert(self.values, pos, int(value))
        self.n_subtree_keys += 1
        self._rebuild_segments()

    # ------------------------------------------------------------------
    # LIPP-walk compatibility
    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterator[tuple[int, int]]:
        """Yield (key, value) pairs in ascending key order."""
        for key, value in zip(self.keys.tolist(), self.values.tolist()):
            yield int(key), int(value)

    def collect_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Keys and values as sorted parallel arrays."""
        return self.keys.copy(), self.values.copy()

    def leaf_size_bytes(self) -> int:
        """Resident bytes: header + dense entries + PLA segments."""
        return (
            NODE_HEADER_BYTES
            + int(self.keys.size) * (KEY_BYTES + VALUE_BYTES)
            + self.segment_count * SEGMENT_BYTES
        )

    def walk(self):
        """A flattened node is a leaf of the LIPP-style walk."""
        yield self
