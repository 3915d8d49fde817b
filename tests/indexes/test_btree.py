"""Tests for the B+-tree baseline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import IndexStateError
from repro.indexes.btree import BPlusTree

key_value_ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=99)),
    min_size=1,
    max_size=120,
)


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


class TestInsert:
    def test_insert_then_lookup(self, small_keys):
        tree = BPlusTree.build(small_keys)
        tree.insert(10**9, 42)
        assert tree.lookup(10**9) == 42

    def test_insert_updates_existing(self, small_keys):
        tree = BPlusTree.build(small_keys)
        key = int(small_keys[0])
        tree.insert(key, 99)
        assert tree.lookup(key) == 99
        assert tree.n_keys == small_keys.size

    def test_sequential_inserts_split(self):
        tree = BPlusTree(order=4)
        for k in range(200):
            tree.insert(k, k)
        assert tree.n_keys == 200
        assert tree.height() > 1
        for k in range(0, 200, 7):
            assert tree.lookup(k) == k

    def test_reverse_inserts(self):
        tree = BPlusTree(order=4)
        for k in range(100, 0, -1):
            tree.insert(k, k)
        assert list(tree.iter_keys()) == list(range(1, 101))

    @settings(max_examples=40, deadline=None)
    @given(ops=key_value_ops)
    def test_matches_dict_oracle(self, ops):
        tree = BPlusTree(order=4)
        oracle: dict[int, int] = {}
        for key, value in ops:
            tree.insert(key, value)
            oracle[key] = value
        assert tree.n_keys == len(oracle)
        for key, value in oracle.items():
            assert tree.lookup(key) == value
        assert list(tree.iter_keys()) == sorted(oracle)


class TestRangeQuery:
    def test_inclusive_bounds(self, range_pairs):
        tree = BPlusTree.build(np.arange(0, 100, 10))
        assert range_pairs(tree.range_query(10, 30)) == [(10, 10), (20, 20), (30, 30)]

    def test_crosses_leaves(self, rng, range_pairs):
        keys = np.unique(rng.integers(0, 10**6, 500))
        tree = BPlusTree.build(keys, order=8)
        lo, hi = int(keys[50]), int(keys[200])
        expected = [(int(k), int(k)) for k in keys if lo <= k <= hi]
        assert range_pairs(tree.range_query(lo, hi)) == expected

    def test_empty_range(self, small_keys, range_pairs):
        tree = BPlusTree.build(small_keys)
        assert range_pairs(tree.range_query(int(small_keys[-1]) + 1, int(small_keys[-1]) + 10)) == []


class TestStructure:
    def test_iter_keys_sorted(self, small_keys):
        tree = BPlusTree.build(small_keys)
        assert list(tree.iter_keys()) == small_keys.tolist()

    def test_key_level_equals_height(self, small_keys):
        tree = BPlusTree.build(small_keys, order=8)
        assert tree.key_level(int(small_keys[0])) == tree.height()

    def test_node_count_positive(self, small_keys):
        assert BPlusTree.build(small_keys).node_count() >= 1

    def test_size_bytes_grows_with_keys(self, rng):
        small = BPlusTree.build(np.unique(rng.integers(0, 10**8, 100)))
        large = BPlusTree.build(np.unique(rng.integers(0, 10**8, 3000)))
        assert large.size_bytes() > small.size_bytes()
