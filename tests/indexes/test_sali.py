"""Tests for the SALI substrate (access tracking + flattening)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.indexes.sali import AccessTracker, FlattenedNode, SaliIndex


@pytest.fixture()
def sali(clustered_keys) -> SaliIndex:
    return SaliIndex.build(clustered_keys)


class TestQueries:
    def test_lookup_every_key(self, sali, clustered_keys):
        for key in clustered_keys[::9].tolist():
            stats = sali.lookup_stats(key)
            assert stats.found and stats.value == key

    def test_lipp_parity_before_flattening(self, sali, clustered_keys):
        """Without flattening SALI behaves exactly like LIPP."""
        from repro.indexes.lipp import LippIndex

        lipp = LippIndex.build(clustered_keys)
        for key in clustered_keys[::31].tolist():
            assert sali.lookup_stats(key).levels == lipp.lookup_stats(key).levels

    def test_access_counts_accumulate(self, sali, clustered_keys):
        before = sali.root.access_count
        for key in clustered_keys[:50].tolist():
            sali.lookup_stats(key)
        assert sali.root.access_count == before + 50
        assert sali.tracker.total_queries >= 50


class TestFlattening:
    def _warm(self, sali: SaliIndex, keys: np.ndarray, hot: np.ndarray) -> None:
        for key in hot.tolist():
            sali.lookup_stats(int(key))

    def test_flatten_hot_subtrees(self, sali, clustered_keys, rng):
        hot = rng.choice(clustered_keys, 4000)
        self._warm(sali, clustered_keys, hot)
        flattened = sali.flatten_hot_subtrees(min_probability=0.03)
        if flattened == 0:
            pytest.skip("no subtree crossed the probability threshold")
        assert len(sali.flattened_nodes()) == flattened

    def test_correct_after_flattening(self, sali, clustered_keys, rng):
        hot = rng.choice(clustered_keys, 4000)
        self._warm(sali, clustered_keys, hot)
        sali.flatten_hot_subtrees(min_probability=0.02)
        for key in clustered_keys[::5].tolist():
            stats = sali.lookup_stats(key)
            assert stats.found and stats.value == key

    def test_flattened_lookup_has_search_steps(self, sali, clustered_keys, rng):
        hot = rng.choice(clustered_keys, 5000)
        self._warm(sali, clustered_keys, hot)
        if sali.flatten_hot_subtrees(min_probability=0.02) == 0:
            pytest.skip("nothing flattened")
        flat = sali.flattened_nodes()[0]
        key = int(flat.keys[0])
        stats = sali.lookup_stats(key)
        assert stats.search_steps >= 1  # the extra search the paper notes

    def test_insert_into_flattened(self, sali, clustered_keys, rng):
        hot = rng.choice(clustered_keys, 5000)
        self._warm(sali, clustered_keys, hot)
        if sali.flatten_hot_subtrees(min_probability=0.02) == 0:
            pytest.skip("nothing flattened")
        flat = sali.flattened_nodes()[0]
        probe = int(flat.keys[0]) + 1
        if probe in set(flat.keys.tolist()):
            pytest.skip("no free value")
        n_before = sali.n_keys
        sali.insert(probe, 42)
        assert sali.lookup(probe) == 42
        assert sali.n_keys == n_before + 1

    def test_insert_outside_flattened(self, sali, clustered_keys, rng):
        new = np.setdiff1d(np.unique(rng.integers(0, 2**40, 500)), clustered_keys)
        for key in new.tolist():
            sali.insert(int(key), int(key))
        for key in new[::17].tolist():
            assert sali.lookup(int(key)) == int(key)

    def test_size_accounts_flattened(self, sali, clustered_keys, rng):
        size_before = sali.size_bytes()
        hot = rng.choice(clustered_keys, 5000)
        self._warm(sali, clustered_keys, hot)
        sali.flatten_hot_subtrees(min_probability=0.02)
        assert sali.size_bytes() > 0
        assert abs(sali.size_bytes() - size_before) < size_before  # same order


class TestFlattenedNode:
    def test_lookup_and_bounds(self, small_keys):
        node = FlattenedNode(small_keys, small_keys, level=2, epsilon=4)
        for key in small_keys.tolist():
            found, value, steps = node.lookup(key)
            assert found and value == key and steps >= 1

    def test_miss(self, small_keys):
        node = FlattenedNode(small_keys, small_keys, level=2)
        found, value, __ = node.lookup(int(small_keys[0]) - 1)
        assert not found and value is None

    def test_insert_keeps_sorted(self, small_keys):
        node = FlattenedNode(small_keys.copy(), small_keys.copy(), level=2)
        probe = int(small_keys[0]) + 1
        if probe in set(small_keys.tolist()):
            pytest.skip("occupied")
        node.insert(probe, 5)
        assert np.all(np.diff(node.keys) > 0)
        assert node.lookup(probe)[0]

    def test_rejects_empty(self):
        with pytest.raises(Exception):
            FlattenedNode(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), level=2)

    def test_walk_compatibility(self, small_keys):
        node = FlattenedNode(small_keys, small_keys, level=2)
        assert list(node.walk()) == [node]
        assert node.children == {}
        assert node.n_subtree_keys == small_keys.size


class TestAccessTracker:
    def test_probability(self):
        tracker = AccessTracker()

        class Node:
            access_count = 0

        node = Node()
        for __ in range(10):
            tracker.record_path([node])
        assert tracker.probability(node) == pytest.approx(1.0)

    def test_is_hot_threshold(self):
        tracker = AccessTracker()

        class Node:
            access_count = 5

        tracker.total_queries = 100
        assert tracker.is_hot(Node(), 0.04)
        assert not tracker.is_hot(Node(), 0.06)

    def test_zero_queries(self):
        tracker = AccessTracker()

        class Node:
            access_count = 0

        assert tracker.probability(Node()) == 0.0
