"""Tests for the shared index interface pieces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cost_model import CostConstants
from repro.core.exceptions import IndexStateError, KeyNotFoundError
from repro.indexes.base import QueryStats, prepare_key_values
from repro.indexes.sorted_array import SortedArrayIndex


class TestQueryStats:
    def test_simulated_ns_uses_constants(self):
        stats = QueryStats(key=1, found=True, value=1, levels=2, search_steps=3)
        consts = CostConstants(traversal_ns=10.0, search_ns=5.0, base_ns=1.0)
        assert stats.simulated_ns(consts) == pytest.approx(1 + 20 + 15)

    def test_default_constants(self):
        stats = QueryStats(key=1, found=False, value=None, levels=1, search_steps=0)
        assert stats.simulated_ns() == pytest.approx(
            CostConstants().base_ns + CostConstants().traversal_ns
        )

    def test_frozen(self):
        stats = QueryStats(key=1, found=True, value=1, levels=1, search_steps=0)
        with pytest.raises(AttributeError):
            stats.levels = 5  # type: ignore[misc]


class TestPrepareKeyValues:
    def test_default_values_are_keys(self):
        keys, values = prepare_key_values([1, 5, 9])
        assert values.tolist() == [1, 5, 9]

    def test_explicit_values(self):
        __, values = prepare_key_values([1, 2], [10, 20])
        assert values.tolist() == [10, 20]

    def test_rejects_mismatched_values(self):
        with pytest.raises(IndexStateError):
            prepare_key_values([1, 2], [10])


class TestBaseHelpers:
    def test_lookup_strict_raises_on_miss(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        with pytest.raises(KeyNotFoundError):
            index.lookup_strict(int(small_keys[0]) - 1)

    def test_contains(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        assert int(small_keys[3]) in index
        assert (int(small_keys[0]) - 1) not in index

    def test_verify_against_passes(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        index.verify_against(small_keys, small_keys)

    def test_verify_against_detects_corruption(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        wrong = small_keys.copy() + 1
        with pytest.raises(IndexStateError):
            index.verify_against(small_keys, wrong)

    def test_key_levels_vectorises(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        levels = index.key_levels(small_keys[:5])
        assert levels.tolist() == [1] * 5

    def test_batch_stats_order(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        batch = index.lookup_many(small_keys[:4])
        assert [batch.stat(i).key for i in range(4)] == small_keys[:4].tolist()
