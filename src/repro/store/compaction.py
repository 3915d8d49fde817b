"""Compaction strategies: which runs to fold together, and into what.

Flushes leave a stack of small sorted runs behind each shard's base
snapshot.  Reads stay correct regardless (recovery replays runs in
generation order, last write winning), but every outstanding run is
extra replay work at reopen and extra bytes on disk, so the serving
layer folds them after every merge.  Two classic shapes are offered,
selectable from the CLI (``--compaction tiered|sortmerge``):

* **size-tiered** (:class:`SizeTieredStrategy`) — bin-pack runs of
  similar size (log2 buckets) and merge each full bucket into one
  bigger *run*, leaving the base untouched.  Cheap per compaction,
  write-amplification-friendly; the base only rewrites when a merged
  run eventually reaches its tier.  The default, mirroring the
  write-heavy posture of the serving layer's staleness-driven merge.
* **full sort-merge** (:class:`SortMergeStrategy`) — fold the base
  and *every* run into one fresh base snapshot.  Maximum read/reopen
  speed (zero replay), maximum write amplification; the right call
  before shipping a data directory or when runs pile past a bound.

Strategies are pure planners: they look at a :class:`Manifest` and
return :class:`CompactionPlan`s; :class:`~repro.store.store.DurableStore`
executes the plans (merge, write, commit, delete inputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .manifest import Manifest, RunMeta

__all__ = [
    "CompactionPlan",
    "CompactionStrategy",
    "SizeTieredStrategy",
    "SortMergeStrategy",
    "make_strategy",
]


@dataclass(frozen=True)
class CompactionPlan:
    """One executable unit of compaction for one shard.

    Attributes:
        shard: the shard whose artefacts are folded.
        inputs: manifest entries consumed (deleted once the commit
            that replaces them lands).
        output_kind: ``"run"`` (tiered: runs merge into a bigger run)
            or ``"base"`` (sort-merge: everything becomes the new
            base snapshot).
    """

    shard: int
    inputs: tuple[RunMeta, ...]
    output_kind: str

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.inputs)


class CompactionStrategy:
    """Planner interface: manifest in, zero or more plans out."""

    name = "abstract"

    def plan(self, manifest: Manifest) -> list[CompactionPlan]:
        """Return the compaction plans this strategy would execute now.

        Each plan folds one shard's inputs into a single output and is
        committed as its own manifest generation; an empty list means
        the directory is already as compact as the strategy wants it.
        """
        raise NotImplementedError


class SizeTieredStrategy(CompactionStrategy):
    """Merge ``min_runs``+ similarly-sized *adjacent* runs into one.

    Runs are tiered by ``floor(log2(size_bytes))`` and grouped
    greedily along the shard's generation order; a group only closes
    when the tier changes.  Any same-tier group of at least
    *min_runs* consecutive runs is planned as one merge.  Adjacency
    matters for correctness, not just taste: runs carry no per-key
    timestamps, so last-write-wins is encoded purely in replay order
    — merging around a surviving younger run would replay an older
    update *after* it.  Bases are never touched, so a tiered pass is
    cheap and incremental.
    """

    name = "tiered"

    def __init__(self, min_runs: int = 4):
        if min_runs < 2:
            raise ValueError("tiered compaction needs min_runs >= 2")
        self.min_runs = int(min_runs)

    def plan(self, manifest: Manifest) -> list[CompactionPlan]:
        plans: list[CompactionPlan] = []
        for shard in range(manifest.n_shards):
            group: list[RunMeta] = []
            group_tier: int | None = None
            for meta in manifest.runs_for(shard):
                tier = int(math.log2(max(1, meta.size_bytes)))
                if tier != group_tier:
                    if len(group) >= self.min_runs:
                        plans.append(
                            CompactionPlan(
                                shard=shard,
                                inputs=tuple(group),
                                output_kind="run",
                            )
                        )
                    group = []
                    group_tier = tier
                group.append(meta)
            if len(group) >= self.min_runs:
                plans.append(
                    CompactionPlan(
                        shard=shard, inputs=tuple(group), output_kind="run"
                    )
                )
        return plans


class SortMergeStrategy(CompactionStrategy):
    """Fold base + every run into a fresh base once runs reach a bound.

    A shard is planned as soon as it has *max_runs* or more
    outstanding runs (or any runs at all when *max_runs* is 1, i.e.
    "always fully compact").
    """

    name = "sortmerge"

    def __init__(self, max_runs: int = 1):
        if max_runs < 1:
            raise ValueError("sort-merge compaction needs max_runs >= 1")
        self.max_runs = int(max_runs)

    def plan(self, manifest: Manifest) -> list[CompactionPlan]:
        plans: list[CompactionPlan] = []
        for shard in range(manifest.n_shards):
            runs = manifest.runs_for(shard)
            if len(runs) < self.max_runs:
                continue
            base = manifest.base_for(shard)
            inputs = ((base,) if base is not None else ()) + runs
            plans.append(
                CompactionPlan(shard=shard, inputs=inputs, output_kind="base")
            )
        return plans


def make_strategy(spec: str) -> CompactionStrategy:
    """Parse a CLI ``--compaction`` value into a strategy.

    ``"tiered"`` / ``"sortmerge"``, optionally with a run bound after
    a colon: ``"tiered:8"`` (min runs per tier), ``"sortmerge:4"``
    (runs before a full fold).
    """
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "tiered":
        return SizeTieredStrategy(min_runs=int(arg) if arg else 4)
    if name == "sortmerge":
        return SortMergeStrategy(max_runs=int(arg) if arg else 1)
    raise ValueError(
        f"unknown compaction strategy {spec!r} (expected 'tiered' or 'sortmerge')"
    )
