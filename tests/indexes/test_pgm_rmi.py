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
        with pytest.raises(NotImplementedError):
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

    def test_iter_keys(self, small_keys):
        index = PGMIndex.build(small_keys)
        assert list(index.iter_keys()) == small_keys.tolist()


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
        with pytest.raises(NotImplementedError):
            RMIIndex.build(small_keys).insert(1, 1)

    def test_branching_controls_node_count(self, clustered_keys):
        narrow = RMIIndex.build(clustered_keys, branching=4)
        wide = RMIIndex.build(clustered_keys, branching=64)
        assert wide.node_count() > narrow.node_count()

    def test_custom_values(self):
        index = RMIIndex.build(np.array([5, 10, 20, 30, 50]), np.array([1, 2, 3, 4, 5]))
        assert index.lookup(20) == 3

    def test_iter_keys(self, small_keys):
        index = RMIIndex.build(small_keys)
        assert list(index.iter_keys()) == small_keys.tolist()


@pytest.mark.parametrize("cls", [PGMIndex, RMIIndex], ids=["pgm", "rmi"])
class TestBulkInsertMany:
    """The static baselines absorb a write batch in place, and end up
    as the index ``build`` makes from the merged content."""

    @settings(max_examples=25, deadline=None)
    @given(
        stored=st.lists(st.integers(0, 10**6), min_size=1, max_size=1500, unique=True),
        batch=st.lists(st.integers(0, 10**6), min_size=1, max_size=1500),
    )
    def test_merge_equals_a_build_of_the_merged_content(self, cls, stored, batch):
        stored = np.asarray(sorted(stored), dtype=np.int64)
        batch = np.asarray(batch, dtype=np.int64)
        batch_values = -np.arange(1, batch.size + 1, dtype=np.int64)
        merged = dict(zip(stored.tolist(), (stored * 3).tolist()))
        merged.update(zip(batch.tolist(), batch_values.tolist()))  # last write wins
        merged_keys = np.asarray(sorted(merged), dtype=np.int64)
        merged_values = np.asarray([merged[k] for k in merged_keys.tolist()], dtype=np.int64)

        index = cls.build(stored, stored * 3)
        before = id(index)
        index.bulk_insert_many(batch, batch_values)
        built = cls.build(merged_keys, merged_values)
        assert id(index) == before
        probe = np.concatenate([merged_keys, merged_keys + 1, [-1, 10**7]])
        got, want = index.lookup_many(probe), built.lookup_many(probe)
        for field in ("found", "values", "levels", "search_steps"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert index.n_keys == built.n_keys == merged_keys.size
        assert (index.height(), index.node_count(), index.size_bytes()) == (
            built.height(), built.node_count(), built.size_bytes()
        )

    def test_empty_batch_changes_nothing(self, cls, small_keys):
        index = cls.build(small_keys)
        index.bulk_insert_many(np.empty(0, dtype=np.int64))
        assert list(index.iter_keys()) == small_keys.tolist()


def test_merge_keeps_the_chosen_epsilon_and_branching(clustered_keys):
    fresh = clustered_keys[::7] + 1
    merged = np.union1d(clustered_keys, fresh)
    pgm = PGMIndex.build(clustered_keys, epsilon=4)
    pgm.bulk_insert_many(fresh)
    assert pgm.epsilon == 4
    assert pgm.segment_count == PGMIndex.build(merged, epsilon=4).segment_count
    rmi = RMIIndex.build(clustered_keys, branching=4)
    rmi.bulk_insert_many(fresh)
    assert rmi.node_count() == 1 + 4
