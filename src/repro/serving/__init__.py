"""Sharded serving layer: range partitioning, routing, and a
write-buffered index service.

The paper evaluates one monolithic index at a time; this package
scales the PR-1 batch query engine horizontally.  A key set is
range-partitioned into K shards (:mod:`~repro.serving.partitioner`),
each shard is built — and optionally CSV-smoothed with its own α — as
an independent index, a vectorised scatter/gather router fans query
batches out and gathers the per-shard :class:`~repro.indexes.base.
BatchQueryStats` back into positional order
(:mod:`~repro.serving.router`), and :class:`~repro.serving.service.
IndexService` fronts the shards with per-shard write buffers
(staleness-triggered merge + re-smoothing) and a ledger of what every
read observed.

The served families are the three CSV integrates with
(:data:`~repro.indexes.CSV_FAMILIES`); the read-only baselines are
not served.

Execution: everything runs on the caller's thread.  A LIPP/SALI
router answers a batch with one sweep over a forest view of its
shards; for ALEX it runs the batch's per-shard slices inline, one
after another.

Observability: one ledger — :class:`ServiceStats` plus reads counted
per ``[shard, levels, search_steps]`` — priced into simulated ns only
when :meth:`~repro.serving.service.IndexService.health_report` or an
enabled registry asks (see :mod:`repro.serving.service`).

The names re-exported here are the stable public surface of the
serving layer: routing types (:class:`RoutedBatch`) and report types
(:class:`HealthReport`, :class:`ShardHealth`).  Callers should use
these rather than reaching into router internals.
"""

from ..obs.health import HealthReport, ShardHealth

from .partitioner import ShardPlan, build_shard_indexes, plan_shards
from .router import RoutedBatch, ShardRouter
from .service import IndexService, ServiceStats

__all__ = [
    "HealthReport",
    "IndexService",
    "RoutedBatch",
    "ShardHealth",
    "ServiceStats",
    "ShardPlan",
    "ShardRouter",
    "build_shard_indexes",
    "plan_shards",
]
