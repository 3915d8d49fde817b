"""Shard planning: boundary choice, per-shard α, per-shard builds."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.exceptions import InvalidKeysError
from repro.serving import ShardPlan, build_shard_indexes, plan_shards


class TestPlanShards:
    def test_equi_depth_balances_counts(self, rng):
        keys = np.unique(rng.integers(0, 10**8, 4000))
        plan = plan_shards(keys, 8)
        sizes = [s.size for s in plan.shard_keys]
        assert sum(sizes) == keys.size
        assert max(sizes) - min(sizes) <= 1
        assert plan.boundaries.size == 7

    def test_shards_partition_the_keys_in_order(self, rng):
        keys = np.unique(rng.integers(0, 10**8, 3000))
        plan = plan_shards(keys, 5)
        reassembled = np.concatenate(plan.shard_keys)
        assert np.array_equal(reassembled, keys)
        # Every key routes to the shard slice that holds it.
        ids = np.searchsorted(plan.boundaries, keys, side="right")
        expected = np.repeat(
            np.arange(plan.n_shards), [s.size for s in plan.shard_keys]
        )
        assert np.array_equal(ids, expected)

    def test_k1_has_no_boundaries(self, rng):
        keys = np.unique(rng.integers(0, 10**6, 500))
        plan = plan_shards(keys, 1)
        assert plan.boundaries.size == 0
        assert plan.n_shards == 1
        assert np.array_equal(plan.shard_keys[0], keys)

    def test_more_shards_than_keys_yields_empty_shards(self):
        keys = np.asarray([10, 20, 30], dtype=np.int64)
        plan = plan_shards(keys, 8)
        assert plan.n_shards == 8
        assert plan.n_keys == 3
        assert sum(1 for s in plan.shard_keys if s.size == 0) == 5
        assert np.array_equal(np.concatenate(plan.shard_keys), keys)

    def test_rejects_bad_inputs(self, rng):
        keys = np.unique(rng.integers(0, 10**6, 100))
        with pytest.raises(InvalidKeysError):
            plan_shards(keys, 0)
        with pytest.raises(InvalidKeysError):
            plan_shards(keys, 4, alpha=[0.1, 0.2])  # wrong length
        with pytest.raises(InvalidKeysError):
            plan_shards(keys, 4, alpha="auto")  # a spelling that no longer exists


class TestAlphas:
    def test_scalar_alpha_broadcasts(self, rng):
        keys = np.unique(rng.integers(0, 10**7, 1000))
        plan = plan_shards(keys, 4, alpha=0.2)
        assert plan.alphas == (0.2, 0.2, 0.2, 0.2)

    def test_none_alpha(self, rng):
        keys = np.unique(rng.integers(0, 10**7, 1000))
        assert plan_shards(keys, 3).alphas == (None, None, None)

    def test_per_shard_alphas_are_kept_in_order(self, rng):
        keys = np.unique(rng.integers(0, 10**7, 1000))
        plan = plan_shards(keys, 3, alpha=[0.05, None, 0.3])
        assert plan.alphas == (0.05, None, 0.3)


class TestBuildShardIndexes:
    def test_builds_every_nonempty_shard(self, rng):
        keys = np.unique(rng.integers(0, 10**7, 2000))
        plan = plan_shards(keys, 4)
        shards, reports = build_shard_indexes(plan, "alex")
        assert all(s is not None for s in shards)
        assert sum(s.n_keys for s in shards) == keys.size
        assert reports == [None, None, None, None]

    def test_empty_shards_build_to_none(self):
        plan = plan_shards(np.asarray([1, 2, 3], dtype=np.int64), 6)
        shards, __ = build_shard_indexes(plan, "alex")
        assert sum(1 for s in shards if s is None) == 3

    def test_per_shard_smoothing_reports(self, rng):
        keys = np.unique(rng.integers(0, 10**7, 2000))
        plan = plan_shards(keys, 4, alpha=0.1)
        shards, reports = build_shard_indexes(plan, "lipp")
        assert all(r is not None for r in reports)
        # The read-only baselines CSV does not integrate with are not
        # served, smoothed or not.
        with pytest.raises(InvalidKeysError, match="'pgm'"):
            build_shard_indexes(plan, "pgm")

    def test_unknown_family_rejected(self, rng):
        keys = np.unique(rng.integers(0, 10**6, 100))
        with pytest.raises(InvalidKeysError):
            build_shard_indexes(plan_shards(keys, 2), "fractal")

    def test_plan_is_a_dataclass_with_metrics(self, rng):
        keys = np.unique(rng.integers(0, 10**7, 1000))
        plan = plan_shards(keys, 4)
        assert isinstance(plan, ShardPlan)
        assert (plan.n_shards, plan.n_keys) == (4, keys.size)
        assert {f.name for f in dataclasses.fields(plan)} == {
            "boundaries", "shard_keys", "shard_values", "alphas",
        }
