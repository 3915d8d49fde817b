"""Compaction planners: what gets folded, and the adjacency invariant.

Runs carry no per-key timestamps — last-write-wins lives entirely in
replay order — so the size-tiered planner may only group runs that are
*consecutive* in a shard's generation order.  These tests pin that
invariant with a hand-built manifest where naive size-bucketing would
merge around a surviving younger run.
"""

from __future__ import annotations

import pytest

from repro.store import (
    Manifest,
    RunMeta,
    SizeTieredStrategy,
    SortMergeStrategy,
    make_strategy,
)


def run_meta(generation: int, size: int, shard: int = 0, kind: str = "run"):
    return RunMeta(
        name=f"{kind}-g{generation:08d}-s{shard:04d}.npz",
        kind=kind,
        shard=shard,
        generation=generation,
        n_keys=size // 16,
        min_key=0,
        max_key=10**6,
        checksum="sha256:ff",
        size_bytes=size,
    )


def manifest_of(*artefacts: RunMeta, n_shards: int = 1) -> Manifest:
    return Manifest(
        generation=max((m.generation for m in artefacts), default=1),
        family="lipp",
        n_shards=n_shards,
        boundaries=(),
        alphas=(None,) * n_shards,
        artefacts=artefacts,
    )


SMALL, BIG = 1_000, 1_000_000  # different log2 tiers


class TestSizeTiered:
    def test_groups_consecutive_same_tier_runs(self):
        manifest = manifest_of(*(run_meta(g, SMALL) for g in range(2, 7)))
        plans = SizeTieredStrategy(min_runs=4).plan(manifest)
        assert len(plans) == 1
        assert plans[0].output_kind == "run"
        assert [m.generation for m in plans[0].inputs] == [2, 3, 4, 5, 6]

    def test_never_merges_around_a_surviving_run(self):
        # g2,g3 small | g4 BIG | g5,g6 small: the four small runs share
        # a tier but merging them would replay g2/g3 after g4.  Only
        # consecutive groups are eligible, and both are under min_runs.
        manifest = manifest_of(
            run_meta(2, SMALL),
            run_meta(3, SMALL),
            run_meta(4, BIG),
            run_meta(5, SMALL),
            run_meta(6, SMALL),
        )
        assert SizeTieredStrategy(min_runs=3).plan(manifest) == []

    def test_below_min_runs_no_plan(self):
        manifest = manifest_of(*(run_meta(g, SMALL) for g in range(2, 5)))
        assert SizeTieredStrategy(min_runs=4).plan(manifest) == []

    def test_bases_never_touched(self):
        manifest = manifest_of(
            run_meta(1, BIG, kind="base"),
            *(run_meta(g, SMALL) for g in range(2, 7)),
        )
        (plan,) = SizeTieredStrategy(min_runs=4).plan(manifest)
        assert all(m.kind == "run" for m in plan.inputs)

    def test_plans_per_shard(self):
        manifest = manifest_of(
            *(run_meta(g, SMALL, shard=0) for g in range(2, 6)),
            *(run_meta(g, SMALL, shard=1) for g in range(2, 6)),
            n_shards=2,
        )
        plans = SizeTieredStrategy(min_runs=4).plan(manifest)
        assert sorted(p.shard for p in plans) == [0, 1]

    def test_min_runs_validated(self):
        with pytest.raises(ValueError):
            SizeTieredStrategy(min_runs=1)


class TestSortMerge:
    def test_folds_base_and_all_runs(self):
        base = run_meta(1, BIG, kind="base")
        manifest = manifest_of(base, run_meta(2, SMALL), run_meta(3, SMALL))
        (plan,) = SortMergeStrategy(max_runs=1).plan(manifest)
        assert plan.output_kind == "base"
        assert plan.inputs[0] == base
        assert [m.generation for m in plan.inputs] == [1, 2, 3]

    def test_respects_max_runs_bound(self):
        manifest = manifest_of(run_meta(2, SMALL), run_meta(3, SMALL))
        assert SortMergeStrategy(max_runs=3).plan(manifest) == []
        assert len(SortMergeStrategy(max_runs=2).plan(manifest)) == 1

    def test_shard_with_no_runs_skipped(self):
        manifest = manifest_of(run_meta(1, BIG, kind="base"))
        assert SortMergeStrategy(max_runs=1).plan(manifest) == []

    def test_max_runs_validated(self):
        with pytest.raises(ValueError):
            SortMergeStrategy(max_runs=0)


class TestMakeStrategy:
    def test_parses_names_and_bounds(self):
        assert isinstance(make_strategy("tiered"), SizeTieredStrategy)
        assert isinstance(make_strategy("sortmerge"), SortMergeStrategy)
        assert make_strategy("tiered:8").min_runs == 8
        assert make_strategy("sortmerge:4").max_runs == 4
        assert make_strategy(" Tiered ").min_runs == 4  # default bound

    def test_rejects_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown compaction strategy"):
            make_strategy("leveled")
