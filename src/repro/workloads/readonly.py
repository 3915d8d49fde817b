"""Read-only query execution with cost aggregation.

The profiler drives the index through the batch query engine
(:meth:`~repro.indexes.base.LearnedIndex.lookup_many`): the whole
query array goes down in one call and the per-query cost vectors come
back as numpy arrays, so aggregation is a handful of reductions
instead of a Python loop over :class:`QueryStats` objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.cost_model import CostConstants
from ..core.exceptions import InvalidKeysError
from ..indexes.base import BatchQueryStats, LearnedIndex

__all__ = ["QueryProfile", "profile_queries"]


@dataclass(frozen=True)
class QueryProfile:
    """Aggregated cost of one query batch over one index.

    ``simulated ns`` figures come from the deterministic cost model
    (see DESIGN.md §3); they are the per-query latencies the paper
    reports from wall-clock measurement.
    """

    n_queries: int
    hit_rate: float
    avg_levels: float
    avg_search_steps: float
    avg_simulated_ns: float
    total_simulated_ns: float

    @classmethod
    def from_batch(
        cls, batch: BatchQueryStats, constants: CostConstants | None = None
    ) -> "QueryProfile":
        """Aggregate a :class:`BatchQueryStats` (pure array reductions)."""
        if batch.n_queries == 0:
            raise InvalidKeysError("cannot profile an empty query batch")
        consts = constants or CostConstants()
        ns = batch.simulated_ns(consts)
        return cls(
            n_queries=batch.n_queries,
            hit_rate=batch.hit_rate,
            avg_levels=float(batch.levels.mean()),
            avg_search_steps=float(batch.search_steps.mean()),
            avg_simulated_ns=float(ns.mean()),
            total_simulated_ns=float(ns.sum()),
        )


def profile_queries(
    index: LearnedIndex,
    query_keys: np.ndarray,
    constants: CostConstants | None = None,
) -> QueryProfile:
    """Run *query_keys* against *index* and aggregate the costs.

    Executes the batch through :meth:`LearnedIndex.lookup_many`, so no
    per-key Python dispatch happens on the hot path.
    """
    batch = index.lookup_many(np.asarray(query_keys))
    return QueryProfile.from_batch(batch, constants)
