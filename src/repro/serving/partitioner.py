"""Range partitioning: choose shard boundaries from the key CDF.

Boundaries sit at the K-quantiles of the key array (*equi-depth*), so
every shard holds (almost exactly) ``n / K`` keys.  A
:class:`ShardPlan` is what :meth:`IndexService.build
<repro.serving.service.IndexService.build>` hands from
:func:`plan_shards` to :func:`build_shard_indexes`; once the shards
are built the router is the only record of them.

A plan also carries one smoothing α per shard: every shard is smoothed
*independently*, so a caller may pass one α for all or a length-K
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.csv_algorithm import CsvConfig, CsvReport, apply_csv
from ..core.exceptions import InvalidKeysError
from ..core.segment_stats import validate_keys
from ..indexes import CSV_FAMILIES, adapter_for, family_class
from ..indexes.base import LearnedIndex, prepare_key_values

__all__ = [
    "ShardPlan",
    "build_shard_indexes",
    "plan_shards",
]


@dataclass(frozen=True)
class ShardPlan:
    """A range partitioning of one key set into K shards.

    Attributes:
        boundaries: ``K-1`` non-decreasing cut keys; a query key ``k``
            belongs to shard ``searchsorted(boundaries, k, 'right')``
            (so ``boundaries[i]`` is the smallest key of shard
            ``i+1``).  Equal adjacent boundaries produce an empty
            shard in between — legal, and served as all-miss.
        shard_keys / shard_values: the per-shard key/value slices.
        alphas: per-shard smoothing α (None = shard not smoothed).
    """

    boundaries: np.ndarray
    shard_keys: tuple[np.ndarray, ...]
    shard_values: tuple[np.ndarray, ...]
    alphas: tuple[float | None, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shard_keys)

    @property
    def n_keys(self) -> int:
        return int(sum(k.size for k in self.shard_keys))


def plan_shards(
    keys: np.ndarray | list,
    n_shards: int,
    values: np.ndarray | list | None = None,
    alpha: float | Sequence[float | None] | None = None,
) -> ShardPlan:
    """Choose K equi-depth shard boundaries and slice the data.

    Args:
        keys: sorted unique int keys (the usual build contract).
        n_shards: K ≥ 1.
        values: optional payloads parallel to *keys*.
        alpha: per-shard smoothing α — a scalar (same everywhere), a
            length-K sequence, or None (no smoothing).
    """
    arr, vals = prepare_key_values(validate_keys(keys), values)
    k = int(n_shards)
    if k < 1:
        raise InvalidKeysError("n_shards must be >= 1")
    n = int(arr.size)
    # Key-array positions starting shards 1..K-1.
    cuts = np.asarray([(n * i) // k for i in range(1, k)], dtype=np.int64)
    cuts = np.minimum(cuts, n - 1)
    boundaries = arr[cuts]
    starts = np.concatenate([[0], cuts])
    ends = np.concatenate([cuts, [n]])
    # Collapsed cuts (possible when K approaches n) make ends < starts
    # for the squeezed-out shard; clamp to empty.
    ends = np.maximum(ends, starts)
    shard_keys = tuple(arr[lo:hi] for lo, hi in zip(starts, ends))
    shard_values = tuple(vals[lo:hi] for lo, hi in zip(starts, ends))

    if isinstance(alpha, str):
        raise InvalidKeysError(f"alpha must be a number or one per shard, got {alpha!r}")
    if alpha is None or isinstance(alpha, (int, float)):
        alphas: tuple[float | None, ...] = (None if alpha is None else float(alpha),) * k
    else:
        if len(alpha) != k:
            raise InvalidKeysError("per-shard alphas must have one entry per shard")
        alphas = tuple(None if a is None else float(a) for a in alpha)

    return ShardPlan(
        boundaries=boundaries,
        shard_keys=shard_keys,
        shard_values=shard_values,
        alphas=alphas,
    )


def build_shard_indexes(
    plan: ShardPlan, family: str
) -> tuple[list[LearnedIndex | None], list[CsvReport | None]]:
    """Build (and independently smooth) one index per shard.

    *family* must be one of :data:`~repro.indexes.CSV_FAMILIES` (the
    served ones; :class:`InvalidKeysError` otherwise).  Empty shards
    build to None — the router serves them as all-miss and the service
    lazily materialises them on first insert.  Shards with a non-None
    α get CSV (Algorithm 2) applied in place with that shard's own
    budget.  Returns the indexes and the per-shard CSV reports (None
    where not smoothed).
    """
    cls = family_class(family, CSV_FAMILIES)
    indexes: list[LearnedIndex | None] = []
    reports: list[CsvReport | None] = []
    for shard_keys, shard_values, shard_alpha in zip(
        plan.shard_keys, plan.shard_values, plan.alphas
    ):
        if shard_keys.size == 0:
            indexes.append(None)
            reports.append(None)
            continue
        index = cls.build(shard_keys, shard_values)
        report = None
        if shard_alpha is not None and shard_alpha > 0.0:
            report = apply_csv(adapter_for(index), CsvConfig(alpha=shard_alpha))
        indexes.append(index)
        reports.append(report)
    return indexes, reports
