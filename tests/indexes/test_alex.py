"""Tests for the ALEX substrate (data nodes + index)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import IndexStateError
from repro.core.linear_model import LinearModel, fit_linear
from repro.indexes.alex import AlexDataNode, AlexIndex, InsertStatus
from repro.indexes.alex.data_node import TAIL_FILL

INT64 = np.iinfo(np.int64)

key_sets = st.lists(
    st.integers(min_value=0, max_value=10**9), min_size=2, max_size=200, unique=True
).map(sorted)


class TestDataNode:
    def test_from_sorted_all_keys_found(self, small_keys):
        node = AlexDataNode.from_sorted(small_keys, small_keys, level=1)
        for key in small_keys.tolist():
            found, value, steps = node.lookup(key)
            assert found and value == key and steps >= 1

    def test_slot_keys_non_decreasing(self, small_keys):
        node = AlexDataNode.from_sorted(small_keys, small_keys, level=1)
        assert np.all(np.diff(node.slot_keys) >= 0)

    def test_density_near_target(self, small_keys):
        node = AlexDataNode.from_sorted(small_keys, small_keys, level=1)
        assert 0.5 < node.density <= 0.8

    def test_miss_between_keys(self, small_keys):
        node = AlexDataNode.from_sorted(small_keys, small_keys, level=1)
        probe = int(small_keys[0]) + 1
        if probe not in set(small_keys.tolist()):
            found, value, __ = node.lookup(probe)
            assert not found and value is None

    def test_insert_into_gap(self, small_keys):
        node = AlexDataNode.from_sorted(small_keys, small_keys, level=1)
        probe = int(small_keys[0]) + 1
        if probe in set(small_keys.tolist()):
            pytest.skip("no free value at probe")
        assert node.insert(probe, 42) is InsertStatus.INSERTED
        found, value, __ = node.lookup(probe)
        assert found and value == 42
        assert np.all(np.diff(node.slot_keys) >= 0)

    def test_insert_update(self, small_keys):
        node = AlexDataNode.from_sorted(small_keys, small_keys, level=1)
        key = int(small_keys[3])
        assert node.insert(key, 99) is InsertStatus.UPDATED
        assert node.lookup(key)[1] == 99
        assert node.n_keys == small_keys.size

    def test_full_signal(self):
        keys = np.arange(100, dtype=np.int64)
        node = AlexDataNode.from_sorted(keys, keys, level=1)
        status = InsertStatus.INSERTED
        probe = 1000
        while status is InsertStatus.INSERTED:
            probe += 1
            status = node.insert(probe, probe)
        assert status is InsertStatus.FULL

    @settings(max_examples=30, deadline=None)
    @given(keys=key_sets)
    def test_layout_roundtrip_property(self, keys):
        arr = np.asarray(keys, dtype=np.int64)
        node = AlexDataNode.from_sorted(arr, arr, level=1)
        assert node.n_keys == arr.size
        for key in arr[:: max(1, arr.size // 20)].tolist():
            assert node.lookup(key)[0]

    def test_from_positions_explicit_layout(self):
        keys = np.array([10, 20, 40], dtype=np.int64)
        model = fit_linear(keys, np.array([0, 2, 4]))
        node = AlexDataNode.from_positions(
            keys, keys, positions=np.array([0, 2, 4]), capacity=6, model=model, level=2
        )
        for key in keys.tolist():
            assert node.lookup(key)[0]
        assert node.capacity == 6

    def test_from_positions_rejects_overflow(self):
        keys = np.array([1, 2], dtype=np.int64)
        with pytest.raises(ValueError):
            AlexDataNode.from_positions(
                keys, keys, positions=np.array([0, 5]), capacity=3,
                model=LinearModel(1.0, 0.0), level=1,
            )

    def test_from_positions_rejects_non_monotone(self):
        keys = np.array([1, 2], dtype=np.int64)
        with pytest.raises(ValueError):
            AlexDataNode.from_positions(
                keys, keys, positions=np.array([3, 3]), capacity=5,
                model=LinearModel(1.0, 0.0), level=1,
            )

    def test_expected_search_steps_reflect_fit(self):
        linear = np.arange(0, 1000, 10, dtype=np.int64)
        good = AlexDataNode.from_sorted(linear, linear, level=1)
        rng = np.random.default_rng(0)
        skewed = np.unique((rng.lognormal(10, 2.5, 200)).astype(np.int64))
        bad = AlexDataNode.from_sorted(skewed, skewed, level=1)
        assert good.expected_search_steps() <= bad.expected_search_steps()

    def test_tail_gaps_hold_sentinel(self):
        keys = np.array([5, 6], dtype=np.int64)
        node = AlexDataNode.from_sorted(keys, keys, level=1)
        if not node.occupied[-1]:
            assert int(node.slot_keys[-1]) == TAIL_FILL


class TestAlexIndex:
    def test_build_and_lookup(self, clustered_keys):
        index = AlexIndex.build(clustered_keys)
        for key in clustered_keys[::7].tolist():
            stats = index.lookup_stats(key)
            assert stats.found and stats.value == key
            assert stats.levels >= 1 and stats.search_steps >= 1

    def test_miss(self, clustered_keys):
        index = AlexIndex.build(clustered_keys)
        missing = int(clustered_keys[0]) - 7
        assert not index.lookup_stats(missing).found

    def test_n_keys(self, clustered_keys):
        assert AlexIndex.build(clustered_keys).n_keys == clustered_keys.size

    def test_small_build_is_single_data_node(self):
        index = AlexIndex.build(np.arange(50))
        assert index.height() == 1
        assert index.node_count() == 1

    def test_insert_random(self, clustered_keys, rng):
        index = AlexIndex.build(clustered_keys)
        new = np.setdiff1d(np.unique(rng.integers(0, 2**40, 2000)), clustered_keys)
        for key in new.tolist():
            index.insert(key, key)
        assert index.n_keys == clustered_keys.size + new.size
        for key in new[::13].tolist():
            assert index.lookup(key) == key

    def test_insert_sequential_bounded_height(self, small_keys):
        index = AlexIndex.build(small_keys)
        base = int(small_keys[-1]) + 10
        for key in range(base, base + 3000):
            index.insert(key, 1)
        assert index.height() <= 12
        assert index.lookup(base + 1500) == 1

    def test_insert_update_existing(self, small_keys):
        index = AlexIndex.build(small_keys)
        key = int(small_keys[5])
        index.insert(key, 77)
        assert index.lookup(key) == 77
        assert index.n_keys == small_keys.size

    def test_iter_keys_sorted(self, clustered_keys):
        index = AlexIndex.build(clustered_keys)
        assert np.array_equal(
            np.fromiter(index.iter_keys(), dtype=np.int64), clustered_keys
        )

    def test_key_level_matches_descend(self, clustered_keys):
        index = AlexIndex.build(clustered_keys)
        key = int(clustered_keys[10])
        assert index.key_level(key) == index.lookup_stats(key).levels

    def test_key_level_raises_for_missing(self, clustered_keys):
        index = AlexIndex.build(clustered_keys)
        with pytest.raises(IndexStateError):
            index.key_level(int(clustered_keys[0]) - 5)

    def test_node_levels_contains_root(self, clustered_keys):
        assert 1 in AlexIndex.build(clustered_keys).node_levels()

    def test_size_bytes_positive(self, small_keys):
        assert AlexIndex.build(small_keys).size_bytes() > 0

    def test_consecutive_inserts_split_a_full_node(self):
        """A data node that is full at the capacity cap splits downward:
        the only per-key path that adds a level (an expand rebuilds the
        node in place), so the height growing is the split."""
        keys = np.arange(200, dtype=np.int64) * 3
        index = AlexIndex.build(keys)
        assert (index.height(), index.node_count()) == (1, 1)
        oracle = {int(k): int(k) for k in keys}
        for key in range(1_000, 10_000):
            index.insert(key, -key)
            oracle[key] = -key
        assert index.height() >= 2
        assert index.node_count() >= 3  # the 2-way inner node and its halves
        probe = np.asarray(sorted(oracle), dtype=np.int64)
        batch = index.lookup_many(probe)
        assert bool(batch.found.all())
        assert batch.values.tolist() == [oracle[k] for k in probe.tolist()]
        assert index.n_keys == len(oracle)
        assert list(index.iter_keys()) == probe.tolist()


def _assert_gapped_invariant(index: AlexIndex) -> None:
    """Every data node's slot keys are non-decreasing, and every gap
    holds the next occupied key to its right (``TAIL_FILL`` past the
    last one) — what ``_fill_gaps`` lays out and inserts must keep."""
    for node in index._walk():
        if not isinstance(node, AlexDataNode):
            continue
        slot_keys = node.slot_keys
        assert bool(np.all(slot_keys[1:] >= slot_keys[:-1]))
        fill = np.where(node.occupied, slot_keys, TAIL_FILL)
        next_key = np.minimum.accumulate(fill[::-1])[::-1]
        gaps = ~node.occupied
        assert np.array_equal(slot_keys[gaps], next_key[gaps])


#: Keys for the insert property: anywhere in int64, ``TAIL_FILL`` (the
#: trailing-gap sentinel) included, with the extremes and a dense band
#: that forces shifts and overwrites.
insert_keys = st.one_of(
    st.integers(min_value=int(INT64.min), max_value=int(INT64.max)),
    st.integers(min_value=-64, max_value=64),
    st.sampled_from([int(INT64.min), int(INT64.min) + 1, int(INT64.max) - 1, int(INT64.max)]),
)


class TestTailFillKey:
    """A stored key equal to ``TAIL_FILL`` shares its equal run with the
    trailing gaps: the batch path must stop where the scalar walk does."""

    @staticmethod
    def assert_batch_is_scalar(index: AlexIndex, probe: list[int]) -> None:
        batch = index.lookup_many(probe)
        for i, key in enumerate(probe):
            stat = index.lookup_stats(key)
            assert (stat.found, stat.value or 0, stat.levels, stat.search_steps) == (
                bool(batch.found[i]), int(batch.values[i]), int(batch.levels[i]),
                int(batch.search_steps[i]),
            )

    def test_stored_before_trailing_gaps_is_found(self):
        index = AlexIndex.build([0, 5, 10])
        index.insert(int(TAIL_FILL), 1)
        index.insert(int(INT64.min), 1)
        assert index.lookup(int(TAIL_FILL)) == 1
        assert index.lookup_many([int(TAIL_FILL)]).found.tolist() == [True]
        self.assert_batch_is_scalar(index, [int(INT64.min), 0, 5, 10, int(TAIL_FILL)])

    def test_absent_walks_the_trailing_gaps(self):
        index = AlexIndex.build([0, 5, 10])
        assert not index.lookup_many([int(TAIL_FILL)]).found.any()
        self.assert_batch_is_scalar(index, [int(TAIL_FILL), int(TAIL_FILL) - 1, 11])


class TestGappedInsertInvariant:
    @settings(max_examples=60, deadline=None)
    @given(
        base=st.lists(st.integers(min_value=-1_000, max_value=1_000), min_size=1, max_size=150, unique=True),
        ops=st.lists(st.tuples(insert_keys, st.integers(min_value=int(INT64.min), max_value=int(INT64.max))),
                     min_size=50, max_size=400),
    )
    def test_random_inserts_keep_gaps_and_match_a_dict(self, base, ops):
        keys = np.asarray(sorted(base), dtype=np.int64)
        index = AlexIndex.build(keys, keys * 2)
        oracle = {int(k): int(k) * 2 for k in keys}
        for key, value in ops:
            index.insert(key, value)
            oracle[key] = value
            _assert_gapped_invariant(index)
        probe = np.asarray(sorted(oracle), dtype=np.int64)
        batch = index.lookup_many(probe)
        assert bool(batch.found.all())
        assert batch.values.tolist() == [oracle[k] for k in probe.tolist()]
        assert [index.lookup(k) for k in probe.tolist()] == batch.values.tolist()
        assert index.n_keys == len(oracle)
