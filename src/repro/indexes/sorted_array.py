"""Binary-searched sorted array — the simplest possible baseline.

One "node", ``log2(n)`` search steps per lookup.  Used as the ground
truth oracle in tests and as the classical lower bound on structural
complexity in benches; read-only, like every baseline.
"""

from __future__ import annotations


import numpy as np

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

__all__ = ["SortedArrayIndex"]


class SortedArrayIndex(LearnedIndex):
    """Dense sorted array with binary search."""

    name = "sorted_array"

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        self._keys = keys
        self._values = values
        #: Lazily built probe-count tables for the batch path.
        self._probe_tables: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def build(cls, keys, values=None) -> "SortedArrayIndex":
        arr, vals = prepare_key_values(keys, values)
        return cls(arr, vals)

    def lookup_stats(self, key: int) -> QueryStats:
        key = int(key)
        # Count the probes an iterative binary search performs.
        lo, hi = 0, self._keys.size - 1
        steps = 0
        found = False
        value: int | None = None
        while lo <= hi:
            steps += 1
            mid = (lo + hi) // 2
            mid_key = int(self._keys[mid])
            if mid_key == key:
                found = True
                value = int(self._values[mid])
                break
            if mid_key < key:
                lo = mid + 1
            else:
                hi = mid - 1
        return QueryStats(key=key, found=found, value=value, levels=1, search_steps=steps)

    def lookup_many(self, keys) -> BatchQueryStats:
        """Vectorised batch lookup.

        Runs every query's iterative binary search in lock-step — one
        array operation per probe round instead of one Python loop per
        key — so the probe counts (and therefore the simulated costs)
        are identical to :meth:`lookup_stats`.
        """
        q = _as_query_array(keys)
        m = q.size
        n = int(self._keys.size)
        steps_hit, steps_miss = self._probe_counts()
        pos = np.searchsorted(self._keys, q, side="left")
        found = np.zeros(m, dtype=bool)
        in_range = pos < n
        found[in_range] = self._keys[pos[in_range]] == q[in_range]
        values = np.zeros(m, dtype=np.int64)
        values[found] = self._values[pos[found]]
        steps = np.where(found, steps_hit[np.clip(pos, 0, max(n - 1, 0))], steps_miss[pos])
        return BatchQueryStats(
            keys=q,
            found=found,
            values=values,
            levels=np.ones(m, dtype=np.int64),
            search_steps=steps,
        )

    def _probe_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Probe-count tables of the iterative binary search.

        The probe sequence depends only on which position a query hits
        (or would be inserted at), never on the key values, so one
        O(n) sweep over the implicit search tree yields ``steps_hit[p]``
        (probes to find the key stored at ``p``) and ``steps_miss[i]``
        (probes until ``lo > hi`` for a miss with insertion point
        ``i``) — exactly the counts :meth:`lookup_stats` reports.
        """
        n = int(self._keys.size)
        if self._probe_tables is not None:
            return self._probe_tables
        steps_hit = np.zeros(max(n, 1), dtype=np.int64)
        steps_miss = np.zeros(n + 1, dtype=np.int64)
        stack = [(0, n - 1, 1)]
        while stack:
            lo, hi, depth = stack.pop()
            if lo > hi:
                steps_miss[lo] = depth - 1
                continue
            mid = (lo + hi) >> 1
            steps_hit[mid] = depth
            stack.append((lo, mid - 1, depth + 1))
            stack.append((mid + 1, hi, depth + 1))
        self._probe_tables = (steps_hit[:n] if n else steps_hit[:0], steps_miss)
        return self._probe_tables

    @property
    def n_keys(self) -> int:
        return int(self._keys.size)

    def height(self) -> int:
        return 1

    def node_count(self) -> int:
        return 1

    def size_bytes(self) -> int:
        return NODE_HEADER_BYTES + self._keys.size * (KEY_BYTES + VALUE_BYTES)
