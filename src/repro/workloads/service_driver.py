"""Mixed read/write workload driver for the sharded serving layer.

Feeds an :class:`~repro.serving.service.IndexService` a stream of
batched operations — uniform point reads over the stored keys,
interleaved with writes of fresh keys — entirely through the batch
APIs, and reports wall-clock throughput; what the reads observed
(levels, steps) and its Eq. 22 price is the service's own ledger
(``IndexService.health_report()``), not recomputed here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.exceptions import InvalidKeysError
from .generators import sample_queries

__all__ = ["ServiceWorkloadReport", "run_service_workload"]


@dataclass(frozen=True)
class ServiceWorkloadReport:
    """Outcome of one driven workload against an IndexService."""

    n_reads: int
    n_writes: int
    n_batches: int
    read_hit_rate: float
    wall_seconds: float

    @property
    def n_ops(self) -> int:
        return self.n_reads + self.n_writes

    @property
    def ops_per_second(self) -> float:
        return self.n_ops / self.wall_seconds if self.wall_seconds > 0 else 0.0


def run_service_workload(
    service,
    keys: np.ndarray,
    n_ops: int,
    read_fraction: float = 0.9,
    batch_size: int = 1024,
    seed: int = 0,
) -> ServiceWorkloadReport:
    """Drive *service* with ``n_ops`` mixed operations in batches.

    Each batch is split ``read_fraction`` / ``1 - read_fraction``
    between point lookups (sampled uniformly from *keys*) and inserts
    of fresh keys drawn above the stored key range — the fresh keys
    land in the service's write buffers and are read back by later
    batches once sampled in (buffered reads are part of what the
    driver exercises).
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise InvalidKeysError("read_fraction must be in [0, 1]")
    keys = np.asarray(keys, dtype=np.int64)
    rng = np.random.default_rng(seed)
    known = keys
    fresh_base = int(keys[-1]) + 1
    n_reads = 0
    n_writes = 0
    n_batches = 0
    hits = 0
    start = time.perf_counter()
    remaining = int(n_ops)
    while remaining > 0:
        batch = min(batch_size, remaining)
        n_read = int(round(batch * read_fraction))
        n_write = batch - n_read
        if n_read:
            queries = sample_queries(known, n_read, rng)
            stats = service.lookup_many(queries)
            hits += int(np.count_nonzero(stats.found))
            n_reads += n_read
        if n_write:
            span = max(int(known[-1] - known[0]), 1)
            fresh = fresh_base + rng.integers(0, span, n_write)
            service.insert_many(fresh)
            known = np.concatenate([known, np.unique(fresh)])
            n_writes += n_write
        n_batches += 1
        remaining -= batch
    wall = time.perf_counter() - start
    return ServiceWorkloadReport(
        n_reads=n_reads,
        n_writes=n_writes,
        n_batches=n_batches,
        read_hit_rate=hits / n_reads if n_reads else 0.0,
        wall_seconds=wall,
    )
