"""Vectorised scatter/gather routing over range-partitioned shards.

The router routes reads and swaps shards; it has no write path of its
own (writes buffer in :class:`~repro.serving.service.IndexService`
and reach a shard through :meth:`ShardRouter.replace_shard`).

**One sweep per request.**  When every shard is a LIPP/SALI index the
router holds a :class:`~repro.indexes.lipp.forest.LippForest` over
them: one ``np.searchsorted`` against the boundary array gives every
query its shard, and one flat sweep — each query starting at its own
shard's root — answers the batch, instead of the fixed numpy-dispatch
cost of a sweep once per shard.  ALEX, the other served family, has
no flat view to concatenate, and for it the router scatters: a stable
argsort groups the batch into per-shard contiguous runs, each run goes
down its shard's ``lookup_many`` inline, one after another on the
caller's thread, and the results are gathered back into the caller's
positional order.  Either way the answer is *exact*: entry ``i`` is
bit-identical to routing ``keys[i]`` alone and looking it up in its
shard.

**``replace_shard`` is the publication point.**  The forest is built
in the constructor, and :meth:`ShardRouter.replace_shard` writes the
published shard back over its region of it (or builds a new forest,
when the shard has outgrown the region) — by the one writer, before a
reader can see the new shard — and never on a read.  Either way a
shard that has no flat view is compiled there and then, so no shard
reaches concurrent readers cold: the lazy compile rebinds a tree's slot
arrays onto new buffers and takes no lock, and two first reads
compiling at once would leave the tree and the view on different
buffers (the next in-place merge then silently drops keys).  A shard
mutated structurally behind the router's back makes the forest refuse
(``StaleFlatError``); such a batch is scattered instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.exceptions import IndexStateError
from ..indexes.base import (
    BatchQueryStats,
    LearnedIndex,
    _as_query_array,
    alloc_batch_outputs,
)
from ..indexes.lipp import LippForest, LippIndex
from ..indexes.lipp.flat import StaleFlatError
from ..obs.metrics import get_registry

__all__ = ["RoutedBatch", "ShardRouter"]

_EMPTY = np.empty(0, dtype=np.int64)  # both arrays of an empty range


@dataclass(frozen=True)
class RoutedBatch:
    """Result of one routed lookup batch.

    Attributes:
        gathered: the batch stats in the caller's query order — what a
            monolithic ``lookup_many`` would have returned for
            found/values, with levels/steps as reported by the shard
            that served each query.
        shard_ids: shard serving each query, parallel to the batch —
            the input to per-shard latency accounting.
    """

    gathered: BatchQueryStats
    shard_ids: np.ndarray


class ShardRouter:
    """Router over a list of shard indexes: one sweep over a forest
    view of LIPP/SALI shards, scatter/gather over ALEX's.

    ``shards[i]`` may be None (an empty shard): lookups routed there
    miss with zero traversal cost.
    """

    def __init__(
        self,
        shards: Sequence[LearnedIndex | None],
        boundaries: np.ndarray,
    ):
        boundaries = np.asarray(boundaries, dtype=np.int64)
        if boundaries.size != len(shards) - 1:
            raise IndexStateError(
                f"{len(shards)} shards need {len(shards) - 1} boundaries, "
                f"got {boundaries.size}"
            )
        if boundaries.size > 1 and np.any(np.diff(boundaries) < 0):
            raise IndexStateError("shard boundaries must be non-decreasing")
        self._shards = list(shards)
        self._boundaries = boundaries
        self._forest = self._build_forest()

    def _build_forest(self) -> LippForest | None:
        """The one-sweep view of the shards, when they all have flat
        views (and there is at least one to view)."""
        present = [shard for shard in self._shards if shard is not None]
        if present and all(isinstance(shard, LippIndex) for shard in present):
            return LippForest(self._shards, self._boundaries)
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[LearnedIndex | None, ...]:
        return tuple(self._shards)

    @property
    def boundaries(self) -> np.ndarray:
        return self._boundaries.copy()

    @property
    def n_keys(self) -> int:
        return sum(s.n_keys for s in self._shards if s is not None)

    def size_bytes(self) -> int:
        """Aggregate modelled storage footprint of every shard."""
        return sum(s.size_bytes() for s in self._shards if s is not None)

    def shard_of(self, keys: np.ndarray | list) -> np.ndarray:
        """Vectorised shard assignment: one searchsorted for the batch."""
        return np.searchsorted(self._boundaries, _as_query_array(keys), side="right")

    # ------------------------------------------------------------------
    # Scatter/gather
    # ------------------------------------------------------------------
    def group_by_shard(
        self, keys: np.ndarray | list
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group a batch into per-shard contiguous runs.

        Returns ``(shard_ids, order, offsets)``: *order* stably sorts
        the batch by shard (preserving batch order within a shard —
        what makes insert last-wins semantics survive routing), and
        ``order[offsets[s]:offsets[s+1]]`` are the positions routed to
        shard ``s``.  The service's write path reuses this grouping
        for its buffers.
        """
        shard_ids = self.shard_of(keys)
        order = np.argsort(shard_ids, kind="stable")
        counts = np.bincount(shard_ids, minlength=self.n_shards)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        return shard_ids, order, offsets

    def lookup_many(self, keys: np.ndarray | list) -> RoutedBatch:
        """Routed batched lookups with exact positional gather."""
        q = _as_query_array(keys)
        routed = self._one_sweep(q) or self._scatter_gather(q)
        reg = get_registry()
        if reg.enabled:
            reg.counter("router_batches_total").inc()
            reg.counter("router_routed_keys_total").inc(int(q.size))
            reg.histogram("router_batch_keys").observe(int(q.size))
            # Scatter width: shards this batch actually touched.
            reg.histogram("router_scatter_shards").observe(
                int(np.count_nonzero(np.bincount(routed.shard_ids)))
            )
        return routed

    def _one_sweep(self, q: np.ndarray) -> RoutedBatch | None:
        """The forest's answer — None without a forest, or when it
        refuses because a shard changed behind the router's back."""
        if self._forest is None:
            return None
        try:
            batch = self._forest.lookup_many(q)
        except StaleFlatError:
            return None
        return RoutedBatch(gathered=batch, shard_ids=batch.shard_ids)

    def _scatter_gather(self, q: np.ndarray) -> RoutedBatch:
        """One ``lookup_many`` per shard the batch touches."""
        shard_ids, order, offsets = self.group_by_shard(q)
        found, values, levels, steps = alloc_batch_outputs(int(q.size))
        for shard_no in range(self.n_shards):
            lo, hi = int(offsets[shard_no]), int(offsets[shard_no + 1])
            shard = self._shards[shard_no]
            # An empty shard is a definite miss with no structure to
            # traverse (levels=0, steps=0 — only base_ns accrues); the
            # gathered arrays already say so.
            if lo == hi or shard is None:
                continue
            positions = order[lo:hi]
            batch = shard.lookup_many(q[positions])
            found[positions] = batch.found
            values[positions] = batch.values
            levels[positions] = batch.levels
            steps[positions] = batch.search_steps
        gathered = BatchQueryStats(
            keys=q, found=found, values=values, levels=levels, search_steps=steps
        )
        return RoutedBatch(gathered=gathered, shard_ids=shard_ids)

    def range_query(self, low: int, high: int) -> tuple[np.ndarray, np.ndarray]:
        """Gathered range scan across every shard overlapping the range,
        as ``(keys, values)`` int64 arrays: the shards' answers, joined."""
        low = int(low)
        high = int(high)
        if low > high:
            return _EMPTY, _EMPTY
        first = int(np.searchsorted(self._boundaries, low, side="right"))
        last = int(np.searchsorted(self._boundaries, high, side="right"))
        parts = [
            shard.range_query(low, high)
            for shard in self._shards[first : last + 1]
            if shard is not None
        ]
        if len(parts) == 1:
            return parts[0]
        keys, values = zip(*parts) if parts else ([_EMPTY], [_EMPTY])
        return np.concatenate(keys), np.concatenate(values)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def replace_shard(self, shard_no: int, index: LearnedIndex | None) -> None:
        """Publish one shard's index (the service's merge path; called
        for in-place merges too, whose shard object is unchanged)."""
        self._shards[int(shard_no)] = index
        forest = self._forest
        if forest is None or not isinstance(index, LippIndex) or not forest.replace(shard_no, index):
            self._forest = forest = None  # dropped before its successor is allocated
            self._forest = self._build_forest()
