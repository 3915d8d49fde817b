"""Two-stage Recursive Model Index (Kraska et al. [12]).

The original learned-index architecture: a root linear model routes a
key to one of ``branching`` second-stage linear models; each
second-stage model remembers the worst under/over-prediction observed
over its keys at build time, so a lookup binary-searches only inside
``[pos + min_err, pos + max_err]``.  Static (bulk-loaded and looked
up, never written to), used as a baseline in the benches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.linear_model import LinearModel, fit_linear
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

__all__ = ["RMIIndex"]


@dataclass(frozen=True)
class _SecondStage:
    model: LinearModel
    min_err: int
    max_err: int


class RMIIndex(LearnedIndex):
    """Classic 2-stage RMI with per-model error bounds."""

    name = "rmi"

    def __init__(self, keys: np.ndarray, values: np.ndarray, branching: int | None):
        """Fit the root and the second stage over sorted unique *keys*
        (*branching* None = one second-stage model per 512 keys)."""
        self._keys = keys
        self._values = values
        n = int(keys.size)
        self._branching = max(1, int(n // 512 if branching is None else branching))
        root = fit_linear(keys)  # predicts rank in [0, n)
        self._root = root.scaled(self._branching / max(n, 1))
        assignments = np.clip(
            np.round(self._root.predict_array(keys)).astype(np.int64),
            0,
            self._branching - 1,
        )
        self._stages: list[_SecondStage] = []
        for model_idx in range(self._branching):
            mask = assignments == model_idx
            if not np.any(mask):
                self._stages.append(_SecondStage(LinearModel(0.0, 0.0), 0, 0))
                continue
            segment_keys = keys[mask]
            segment_pos = np.nonzero(mask)[0].astype(np.float64)
            model = fit_linear(segment_keys, segment_pos)
            err = np.round(model.predict_array(segment_keys)).astype(np.int64) - np.nonzero(mask)[0]
            self._stages.append(
                _SecondStage(model=model, min_err=int(err.min()), max_err=int(err.max()))
            )
        # Struct-of-arrays mirror of the stages for the batch path.
        self._stage_slope = np.asarray([s.model.slope for s in self._stages])
        self._stage_intercept = np.asarray([s.model.intercept for s in self._stages])
        self._stage_pivot = np.asarray([s.model.pivot for s in self._stages], dtype=np.int64)
        self._stage_min_err = np.asarray([s.min_err for s in self._stages], dtype=np.int64)
        self._stage_max_err = np.asarray([s.max_err for s in self._stages], dtype=np.int64)

    @classmethod
    def build(cls, keys, values=None, branching: int | None = None) -> "RMIIndex":
        arr, vals = prepare_key_values(keys, values)
        return cls(arr, vals, branching)

    def lookup_stats(self, key: int) -> QueryStats:
        key = int(key)
        n = int(self._keys.size)
        stage_idx = min(max(int(round(self._root.predict(key))), 0), self._branching - 1)
        stage = self._stages[stage_idx]
        predicted = int(round(stage.model.predict(key)))
        lo = min(max(predicted - stage.max_err, 0), n)
        hi = min(max(predicted - stage.min_err + 1, 0), n)
        if lo >= hi:
            lo, hi = 0, n
        keys_list = self._keys
        pos = int(np.searchsorted(keys_list[lo:hi], key)) + lo
        steps = max(1, int(np.ceil(np.log2((hi - lo) + 1))))
        found = pos < n and int(keys_list[pos]) == key
        value = int(self._values[pos]) if found else None
        return QueryStats(key=key, found=found, value=value, levels=2, search_steps=steps)

    def lookup_many(self, keys) -> BatchQueryStats:
        """Vectorised batch lookup: root routing, per-stage predictions
        and the error-bounded binary search as pure array ops."""
        q = _as_query_array(keys)
        m = q.size
        n = int(self._keys.size)
        root_pred = np.rint(self._root.predict_array(q)).astype(np.int64)
        stage = np.clip(root_pred, 0, self._branching - 1)
        delta = (q - self._stage_pivot[stage]).astype(np.float64)
        predicted = np.rint(
            self._stage_slope[stage] * delta + self._stage_intercept[stage]
        ).astype(np.int64)
        lo = np.clip(predicted - self._stage_max_err[stage], 0, n)
        hi = np.clip(predicted - self._stage_min_err[stage] + 1, 0, n)
        degenerate = lo >= hi
        lo[degenerate] = 0
        hi[degenerate] = n
        pos = np.clip(np.searchsorted(self._keys, q, side="left"), lo, hi)
        steps = np.maximum(1, np.ceil(np.log2(hi - lo + 1)).astype(np.int64))
        found = np.zeros(m, dtype=bool)
        in_range = pos < n
        found[in_range] = self._keys[pos[in_range]] == q[in_range]
        values = np.zeros(m, dtype=np.int64)
        values[found] = self._values[pos[found]]
        return BatchQueryStats(
            keys=q,
            found=found,
            values=values,
            levels=np.full(m, 2, dtype=np.int64),
            search_steps=steps,
        )

    @property
    def n_keys(self) -> int:
        return int(self._keys.size)

    def height(self) -> int:
        return 2

    def node_count(self) -> int:
        return 1 + self._branching

    def size_bytes(self) -> int:
        per_model = 8 + 8 + 2 * 8  # slope, intercept, error bounds
        total = NODE_HEADER_BYTES + per_model  # root
        total += self._branching * per_model
        total += self._keys.size * (KEY_BYTES + VALUE_BYTES)
        return total
