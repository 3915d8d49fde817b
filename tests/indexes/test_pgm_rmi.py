"""Tests for the PGM-style and RMI baselines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.pgm import PGMIndex, build_pla_segments
from repro.indexes.rmi import RMIIndex

key_sets = st.lists(
    st.integers(min_value=0, max_value=10**7), min_size=5, max_size=300, unique=True
).map(sorted)


class TestPlaSegments:
    def test_linear_keys_one_segment(self):
        segments = build_pla_segments(np.arange(0, 1000, 10), epsilon=4)
        assert len(segments) == 1

    def test_error_bound_holds(self, clustered_keys):
        epsilon = 8
        segments = build_pla_segments(clustered_keys, epsilon=epsilon)
        for seg in segments:
            for pos in range(seg.first_pos, seg.last_pos + 1):
                predicted = seg.predict(int(clustered_keys[pos]))
                assert abs(predicted - pos) <= epsilon

    @settings(max_examples=30, deadline=None)
    @given(keys=key_sets)
    def test_error_bound_property(self, keys):
        arr = np.asarray(keys, dtype=np.int64)
        epsilon = 4
        segments = build_pla_segments(arr, epsilon=epsilon)
        for seg in segments:
            for pos in range(seg.first_pos, seg.last_pos + 1):
                assert abs(seg.predict(int(arr[pos])) - pos) <= epsilon

    def test_segments_partition_positions(self, clustered_keys):
        segments = build_pla_segments(clustered_keys, epsilon=8)
        covered = []
        for seg in segments:
            covered.extend(range(seg.first_pos, seg.last_pos + 1))
        assert covered == list(range(clustered_keys.size))

    def test_smaller_epsilon_more_segments(self, clustered_keys):
        tight = build_pla_segments(clustered_keys, epsilon=2)
        loose = build_pla_segments(clustered_keys, epsilon=64)
        assert len(tight) >= len(loose)

    def test_empty_input(self):
        assert build_pla_segments(np.empty(0, dtype=np.int64)) == []


class TestPGMIndex:
    def test_lookup_every_key(self, clustered_keys):
        index = PGMIndex.build(clustered_keys, epsilon=8)
        for key in clustered_keys[::5].tolist():
            stats = index.lookup_stats(key)
            assert stats.found and stats.value == key

    def test_miss(self, clustered_keys):
        index = PGMIndex.build(clustered_keys, epsilon=8)
        assert not index.lookup_stats(int(clustered_keys[0]) + 1).found or (
            int(clustered_keys[0]) + 1
        ) in set(clustered_keys.tolist())

    def test_static_insert_raises(self, small_keys):
        index = PGMIndex.build(small_keys)
        with pytest.raises(AttributeError):
            index.insert(1, 1)

    def test_height_at_least_one(self, small_keys):
        assert PGMIndex.build(small_keys).height() >= 1

    def test_key_level_is_data_level(self, small_keys):
        index = PGMIndex.build(small_keys)
        assert index.key_level(int(small_keys[0])) == index.height()

    def test_segment_count_tracks_hardness(self, rng):
        easy = np.arange(0, 20_000, 7, dtype=np.int64)
        hard_centers = rng.uniform(0, 2**40, 20)
        hard = np.unique(
            np.concatenate([(c + rng.lognormal(6, 2, 200)).astype(np.int64) for c in hard_centers])
        )
        assert (
            PGMIndex.build(easy, epsilon=8).segment_count
            < PGMIndex.build(hard, epsilon=8).segment_count
        )

class TestRMIIndex:
    def test_lookup_every_key(self, clustered_keys):
        index = RMIIndex.build(clustered_keys)
        for key in clustered_keys[::5].tolist():
            stats = index.lookup_stats(key)
            assert stats.found and stats.value == key

    def test_miss(self, small_keys):
        index = RMIIndex.build(small_keys)
        assert not index.lookup_stats(int(small_keys[0]) - 1).found

    def test_two_levels(self, small_keys):
        index = RMIIndex.build(small_keys)
        assert index.height() == 2
        assert index.key_level(int(small_keys[0])) == 2

    def test_static_insert_raises(self, small_keys):
        with pytest.raises(AttributeError):
            RMIIndex.build(small_keys).insert(1, 1)

    def test_branching_controls_node_count(self, clustered_keys):
        narrow = RMIIndex.build(clustered_keys, branching=4)
        wide = RMIIndex.build(clustered_keys, branching=64)
        assert wide.node_count() > narrow.node_count()

    def test_custom_values(self):
        index = RMIIndex.build(np.array([5, 10, 20, 30, 50]), np.array([1, 2, 3, 4, 5]))
        assert index.lookup(20) == 3
