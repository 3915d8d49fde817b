"""Vectorised scatter/gather routing over range-partitioned shards.

The router routes reads and swaps shards; it has no write path of its
own (writes buffer in :class:`~repro.serving.service.IndexService`
and reach a shard through :meth:`ShardRouter.replace_shard`).  One
``np.searchsorted`` against the boundary array assigns every query
of a batch to its shard; a stable argsort groups the batch into
per-shard contiguous runs; each run goes down its shard's
``lookup_many``; and the per-shard
:class:`~repro.indexes.base.BatchQueryStats` are gathered back into
the caller's positional order.  The per-shard runs execute inline,
one after another, on the caller's thread.  The gather is *exact*:
entry ``i`` of the gathered batch is bit-identical to routing
``keys[i]`` alone and looking it up in its shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.exceptions import IndexStateError
from ..indexes.base import BatchQueryStats, LearnedIndex, _as_query_array
from ..obs.metrics import get_registry

__all__ = ["RoutedBatch", "ShardRouter"]


@dataclass(frozen=True)
class RoutedBatch:
    """Result of one routed lookup batch.

    Attributes:
        gathered: the batch stats in the caller's query order — what a
            monolithic ``lookup_many`` would have returned for
            found/values, with levels/steps as reported by the shard
            that served each query.
        shard_ids: shard serving each query, parallel to the batch.
        per_shard: each shard's own BatchQueryStats (None where the
            shard received no queries), in shard order — the inputs to
            per-shard latency accounting.
    """

    gathered: BatchQueryStats
    shard_ids: np.ndarray
    per_shard: tuple[BatchQueryStats | None, ...]


class ShardRouter:
    """Scatter/gather router over a list of shard indexes.

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
        m = int(q.size)
        shard_ids, order, offsets = self.group_by_shard(q)
        found = np.zeros(m, dtype=bool)
        values = np.zeros(m, dtype=np.int64)
        levels = np.zeros(m, dtype=np.int64)
        steps = np.zeros(m, dtype=np.int64)
        per_shard: list[BatchQueryStats | None] = [None] * self.n_shards

        for shard_no in range(self.n_shards):
            lo, hi = int(offsets[shard_no]), int(offsets[shard_no + 1])
            if lo == hi:
                continue
            positions = order[lo:hi]
            shard = self._shards[shard_no]
            if shard is None:
                # Empty shard: a definite miss with no structure to
                # traverse (levels=0, steps=0 — only base_ns accrues);
                # the gathered arrays already say so.
                per_shard[shard_no] = BatchQueryStats(
                    keys=q[positions],
                    found=np.zeros(positions.size, dtype=bool),
                    values=np.zeros(positions.size, dtype=np.int64),
                    levels=np.zeros(positions.size, dtype=np.int64),
                    search_steps=np.zeros(positions.size, dtype=np.int64),
                )
                continue
            batch = per_shard[shard_no] = shard.lookup_many(q[positions])
            found[positions] = batch.found
            values[positions] = batch.values
            levels[positions] = batch.levels
            steps[positions] = batch.search_steps

        gathered = BatchQueryStats(
            keys=q, found=found, values=values, levels=levels, search_steps=steps
        )
        reg = get_registry()
        if reg.enabled:
            reg.counter("router_batches_total").inc()
            reg.counter("router_routed_keys_total").inc(m)
            reg.histogram("router_batch_keys").observe(m)
            # Scatter width: shards this batch actually touched — the
            # fan-out the gather pays for.
            reg.histogram("router_scatter_shards").observe(
                sum(1 for b in per_shard if b is not None)
            )
        return RoutedBatch(
            gathered=gathered, shard_ids=shard_ids, per_shard=tuple(per_shard)
        )

    def range_query(self, low: int, high: int) -> list[tuple[int, int]]:
        """Gathered range scan across every shard overlapping the range."""
        low = int(low)
        high = int(high)
        if low > high:
            return []
        first = int(np.searchsorted(self._boundaries, low, side="right"))
        last = int(np.searchsorted(self._boundaries, high, side="right"))
        out: list[tuple[int, int]] = []
        for shard_no in range(first, last + 1):
            shard = self._shards[shard_no]
            if shard is not None:
                out.extend(shard.range_query(low, high))
        return out

    def iter_keys(self):
        """Every stored key in ascending order (shards are disjoint ranges)."""
        for shard in self._shards:
            if shard is not None:
                yield from shard.iter_keys()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def replace_shard(self, shard_no: int, index: LearnedIndex | None) -> None:
        """Swap one shard's index (the service's merge path)."""
        self._shards[int(shard_no)] = index
