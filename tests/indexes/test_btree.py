"""Tests for the B+-tree baseline (bulk-loaded, read-only)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import IndexStateError
from repro.indexes.btree import BPlusTree

class TestBuild:
    def test_lookup_every_key(self, small_keys):
        tree = BPlusTree.build(small_keys)
        for key in small_keys.tolist():
            stats = tree.lookup_stats(key)
            assert stats.found and stats.value == key

    def test_miss(self, small_keys):
        tree = BPlusTree.build(small_keys)
        assert tree.lookup(int(small_keys[0]) - 1) is None

    def test_custom_values(self):
        tree = BPlusTree.build([1, 2, 3], [10, 20, 30])
        assert tree.lookup(2) == 20

    def test_height_grows_logarithmically(self, rng):
        small = BPlusTree.build(np.unique(rng.integers(0, 10**8, 100)), order=8)
        big = BPlusTree.build(np.unique(rng.integers(0, 10**8, 5000)), order=8)
        assert small.height() < big.height() <= small.height() + 6

    def test_rejects_tiny_order(self):
        with pytest.raises(IndexStateError):
            BPlusTree(order=2)

    def test_empty_build(self):
        tree = BPlusTree.build(np.array([7]))
        assert tree.n_keys == 1


class TestStructure:
    def test_key_level_equals_height(self, small_keys):
        tree = BPlusTree.build(small_keys, order=8)
        assert tree.key_level(int(small_keys[0])) == tree.height()

    def test_node_count_positive(self, small_keys):
        assert BPlusTree.build(small_keys).node_count() >= 1

    def test_size_bytes_grows_with_keys(self, rng):
        small = BPlusTree.build(np.unique(rng.integers(0, 10**8, 100)))
        large = BPlusTree.build(np.unique(rng.integers(0, 10**8, 3000)))
        assert large.size_bytes() > small.size_bytes()
