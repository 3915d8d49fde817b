"""Per-shard health model: staleness and imbalance telemetry.

:meth:`IndexService.health_report()
<repro.serving.service.IndexService.health_report>` fills these
dataclasses from what the service observed — its ledger of served
reads and its write buffers — and nothing it predicted; the ``serve``
front door returns one as JSON from ``GET /v1/health``.

Every ``*_ns`` field below is a **model output**: :func:`price_reads`
prices the observed ``(levels, steps)`` classes with Eq. 22's
``CostConstants`` when a report is asked for.  No clock is involved;
``avg_levels`` is the observation itself (the paper's own measure).

Signals per shard:

* **staleness** — unmerged buffered writes over stored keys (the same
  ratio that triggers merges); warn above the service's merge
  threshold, i.e. a shard the merge machinery is failing to keep up
  with.  A shard's ``status`` is ``warn`` exactly then.
* **imbalance** — max/mean of the observed per-shard mean costs; warn
  above :data:`IMBALANCE_WARN`, the signal for re-partitioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShardHealth",
    "HealthReport",
    "IMBALANCE_WARN",
    "price_reads",
    "priced_classes",
]

#: Warn when the max/mean observed per-shard cost ratio exceeds this.
IMBALANCE_WARN = 2.0


def priced_classes(observed: np.ndarray, constants) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The non-empty ``(levels, steps)`` classes of one count matrix:
    their levels, their read counts and their Eq. 22 prices (simulated
    ns) — the one place an observation becomes a price."""
    levels, steps = np.nonzero(observed)
    return levels, observed[levels, steps], constants.query_ns_batch(levels, steps)


def price_reads(observed: np.ndarray, constants) -> dict:
    """Price one ``[levels, search_steps]`` count matrix with Eq. 22.

    Returns the six read-cost fields of a :class:`ShardHealth` row:
    ``queries``, the observed ``avg_levels``, and ``avg_ns`` /
    ``p50_ns`` / ``p90_ns`` / ``p99_ns`` in simulated ns.  A class has
    one price, so the percentiles are the *exact* order statistics of
    the per-read prices (``np.percentile(..., method="inverted_cdf")``
    over one ``constants.query_ns`` per read), not bucket estimates.
    """
    levels, counts, prices = priced_classes(observed, constants)
    n = int(counts.sum())
    if not n:
        return dict(queries=0, avg_levels=0.0, avg_ns=0.0, p50_ns=0.0, p90_ns=0.0, p99_ns=0.0)
    order = np.argsort(prices)
    ascending, reads_below = prices[order], np.cumsum(counts[order])

    def percentile(q: float) -> float:
        rank = max(1, math.ceil(n * (q / 100.0)))
        return float(ascending[np.searchsorted(reads_below, rank)])

    return dict(
        queries=n,
        avg_levels=float(levels @ counts) / n,
        avg_ns=float(prices @ counts) / n,
        p50_ns=percentile(50),
        p90_ns=percentile(90),
        p99_ns=percentile(99),
    )


@dataclass(frozen=True)
class ShardHealth:
    """Health signals of one shard, or of all of them (``shard`` -1)."""

    shard: int
    n_keys: int
    buffered: int
    staleness: float
    queries: int
    avg_levels: float
    avg_ns: float
    p50_ns: float
    p90_ns: float
    p99_ns: float
    status: str  # "ok" | "warn"


@dataclass(frozen=True)
class HealthReport:
    """Service-wide health: per-shard rows plus aggregate signals."""

    shards: tuple[ShardHealth, ...]
    total: ShardHealth
    merges: int
    buffer_hit_rate: float
    cost_imbalance: float
    status: str  # "ok" | "warn"


def shard_status(staleness: float, staleness_warn: float) -> str:
    """Classify one shard: warn on runaway staleness."""
    return "warn" if staleness > staleness_warn else "ok"
