"""Mixed read/write workload driver for the sharded serving layer.

Feeds an :class:`~repro.serving.service.IndexService` a stream of
batched operations — uniform or Zipf-skewed point reads over the
stored keys, interleaved with writes of fresh keys — entirely through
the batch APIs, and reports wall-clock throughput next to the
simulated-ns latency percentiles the service accumulates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.exceptions import InvalidKeysError
from .generators import sample_queries, zipf_queries

__all__ = ["ServiceWorkloadReport", "run_service_workload"]


@dataclass(frozen=True)
class ServiceWorkloadReport:
    """Outcome of one driven workload against an IndexService."""

    n_reads: int
    n_writes: int
    n_batches: int
    read_hit_rate: float
    wall_seconds: float
    avg_simulated_ns: float

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
    distribution: str = "uniform",
    seed: int = 0,
    on_batch: Callable[[int], None] | None = None,
) -> ServiceWorkloadReport:
    """Drive *service* with ``n_ops`` mixed operations in batches.

    Each batch is split ``read_fraction`` / ``1 - read_fraction``
    between point lookups (sampled from *keys*, uniformly or
    Zipf-skewed) and inserts of fresh keys drawn above the stored key
    range — the fresh keys land in the service's write buffers and are
    read back by later batches once sampled in (buffered reads are
    part of what the driver exercises).

    *on_batch*, when given, is called with the 0-based batch number
    after each batch completes — the hook the serve CLI uses to emit
    periodic metrics snapshots mid-workload.
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise InvalidKeysError("read_fraction must be in [0, 1]")
    if distribution not in ("uniform", "zipf"):
        raise InvalidKeysError("distribution must be 'uniform' or 'zipf'")
    keys = np.asarray(keys, dtype=np.int64)
    rng = np.random.default_rng(seed)
    known = keys
    fresh_base = int(keys[-1]) + 1
    n_reads = 0
    n_writes = 0
    n_batches = 0
    hits = 0
    total_ns = 0.0
    start = time.perf_counter()
    remaining = int(n_ops)
    while remaining > 0:
        batch = min(batch_size, remaining)
        n_read = int(round(batch * read_fraction))
        n_write = batch - n_read
        if n_read:
            if distribution == "zipf":
                queries = zipf_queries(known, n_read, rng)
            else:
                queries = sample_queries(known, n_read, rng)
            stats = service.lookup_many(queries)
            hits += int(np.count_nonzero(stats.found))
            total_ns += float(stats.simulated_ns(service.constants).sum())
            n_reads += n_read
        if n_write:
            span = max(int(known[-1] - known[0]), 1)
            fresh = fresh_base + rng.integers(0, span, n_write)
            service.insert_many(fresh)
            known = np.concatenate([known, np.unique(fresh)])
            n_writes += n_write
        if on_batch is not None:
            on_batch(n_batches)
        n_batches += 1
        remaining -= batch
    wall = time.perf_counter() - start
    return ServiceWorkloadReport(
        n_reads=n_reads,
        n_writes=n_writes,
        n_batches=n_batches,
        read_hit_rate=hits / n_reads if n_reads else 0.0,
        wall_seconds=wall,
        avg_simulated_ns=total_ns / n_reads if n_reads else 0.0,
    )
