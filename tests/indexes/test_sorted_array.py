"""Tests for the binary-search baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.indexes.sorted_array import SortedArrayIndex


class TestSortedArray:
    def test_lookup_every_key(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        for key in small_keys.tolist():
            stats = index.lookup_stats(key)
            assert stats.found and stats.value == key

    def test_miss(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        assert not index.lookup_stats(int(small_keys[-1]) + 1).found

    def test_steps_bounded_by_log2(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        bound = int(np.ceil(np.log2(small_keys.size))) + 1
        for key in small_keys[::13].tolist():
            assert index.lookup_stats(key).search_steps <= bound

    def test_single_level(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        assert index.height() == 1
        assert index.node_count() == 1
        assert index.key_level(int(small_keys[0])) == 1

    def test_size_bytes(self, small_keys):
        assert SortedArrayIndex.build(small_keys).size_bytes() > small_keys.size * 16
