"""Tests for workload generation and execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cost_model import CostConstants
from repro.core.exceptions import InvalidKeysError
from repro.indexes import LippIndex, SortedArrayIndex
from repro.indexes.base import BatchQueryStats
from repro.workloads import (
    QueryProfile,
    profile_queries,
    run_insert_batches,
    sample_queries,
    split_read_write,
)


class TestSampleQueries:
    def test_samples_from_keys(self, small_keys, rng):
        queries = sample_queries(small_keys, 50, rng)
        assert queries.size == 50
        assert set(queries.tolist()) <= set(small_keys.tolist())

    def test_without_replacement_unique(self, small_keys, rng):
        queries = sample_queries(small_keys, 50, rng, replace=False)
        assert len(set(queries.tolist())) == 50

    def test_without_replacement_caps_at_population(self, rng):
        queries = sample_queries(np.arange(10), 100, rng, replace=False)
        assert queries.size == 10

    def test_rejects_empty(self, rng):
        with pytest.raises(InvalidKeysError):
            sample_queries(np.empty(0, dtype=np.int64), 5, rng)


class TestSplitReadWrite:
    def test_half_and_batches(self, rng):
        keys = np.arange(0, 10_000, 3)
        split = split_read_write(keys, rng, batch_fraction=0.1, n_batches=5)
        n = keys.size
        assert split.build_keys.size == n // 2
        assert len(split.batches) == 5
        for batch in split.batches:
            assert batch.size == pytest.approx((n // 2) * 0.1, abs=1)

    def test_no_overlap_between_build_and_batches(self, rng):
        keys = np.arange(0, 3000, 7)
        split = split_read_write(keys, rng)
        build = set(split.build_keys.tolist())
        for batch in split.batches:
            assert not build & set(batch.tolist())

    def test_build_keys_sorted(self, rng):
        split = split_read_write(np.arange(0, 999, 3), rng)
        assert np.all(np.diff(split.build_keys) > 0)

    def test_rejects_tiny_input(self, rng):
        with pytest.raises(InvalidKeysError):
            split_read_write(np.array([1, 2]), rng)

    def test_total_inserts(self, rng):
        split = split_read_write(np.arange(0, 2000, 2), rng)
        assert split.total_inserts == sum(b.size for b in split.batches)


class TestProfileQueries:
    def test_profile_fields(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        profile = profile_queries(index, small_keys[:40])
        assert profile.n_queries == 40
        assert profile.hit_rate == 1.0
        assert profile.avg_levels == 1.0
        assert profile.avg_simulated_ns > 0
        assert profile.total_simulated_ns == pytest.approx(
            profile.avg_simulated_ns * 40
        )

    def test_constants_affect_ns(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        cheap = profile_queries(index, small_keys[:20], CostConstants(1, 1, 0))
        dear = profile_queries(index, small_keys[:20], CostConstants(100, 100, 0))
        assert dear.avg_simulated_ns > cheap.avg_simulated_ns

    def test_misses_lower_hit_rate(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        queries = np.concatenate([small_keys[:10], small_keys[:10] * 0 - 1])
        profile = profile_queries(index, queries)
        assert profile.hit_rate == pytest.approx(0.5)

    def test_rejects_empty_batch(self, small_keys):
        with pytest.raises(InvalidKeysError):
            QueryProfile.from_batch(BatchQueryStats.from_query_stats([]))


class TestRunInsertBatches:
    def test_observation_sequence(self, rng):
        keys = np.unique(rng.integers(0, 10**7, 3000))
        split = split_read_write(keys, rng, n_batches=3)
        enhanced = LippIndex.build(split.build_keys)
        original = LippIndex.build(split.build_keys)
        queries = sample_queries(split.build_keys, 100, rng)
        observations = run_insert_batches(
            enhanced, original, split.batches, queries
        )
        assert len(observations) == 4  # initial + 3 batches
        assert observations[0].batch_index == 0
        assert observations[0].inserted_so_far == 0
        assert observations[-1].inserted_so_far == split.total_inserts

    def test_inserts_applied_to_both(self, rng):
        keys = np.unique(rng.integers(0, 10**7, 2000))
        split = split_read_write(keys, rng, n_batches=2)
        enhanced = LippIndex.build(split.build_keys)
        original = LippIndex.build(split.build_keys)
        queries = sample_queries(split.build_keys, 50, rng)
        run_insert_batches(enhanced, original, split.batches, queries)
        assert enhanced.n_keys == original.n_keys
        assert enhanced.n_keys == split.build_keys.size + split.total_inserts

    def test_identical_indexes_save_nothing(self, rng):
        keys = np.unique(rng.integers(0, 10**7, 2000))
        split = split_read_write(keys, rng, n_batches=1)
        enhanced = LippIndex.build(split.build_keys)
        original = LippIndex.build(split.build_keys)
        queries = sample_queries(split.build_keys, 100, rng)
        observations = run_insert_batches(enhanced, original, split.batches, queries)
        assert observations[0].total_time_saved_ns == pytest.approx(0.0)
        assert observations[0].storage_increase_pct == pytest.approx(0.0)
