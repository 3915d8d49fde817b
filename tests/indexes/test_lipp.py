"""Tests for the LIPP substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import IndexStateError
from repro.core.linear_model import fit_linear
from repro.indexes.lipp import SLOT_CHILD, SLOT_DATA, LippIndex, LippNode

key_sets = st.lists(
    st.integers(min_value=0, max_value=10**9), min_size=2, max_size=150, unique=True
).map(sorted)


class TestBuild:
    def test_lookup_every_key(self, clustered_keys):
        index = LippIndex.build(clustered_keys)
        for key in clustered_keys[::7].tolist():
            stats = index.lookup_stats(key)
            assert stats.found and stats.value == key

    def test_precise_positions_no_search(self, clustered_keys):
        """LIPP's defining property: zero in-node search steps."""
        index = LippIndex.build(clustered_keys)
        for key in clustered_keys[::29].tolist():
            assert index.lookup_stats(key).search_steps == 0

    def test_miss(self, clustered_keys):
        index = LippIndex.build(clustered_keys)
        assert not index.lookup_stats(int(clustered_keys[0]) - 3).found

    def test_n_keys(self, clustered_keys):
        assert LippIndex.build(clustered_keys).n_keys == clustered_keys.size

    def test_single_key(self):
        index = LippIndex.build(np.array([42]))
        assert index.lookup(42) == 42

    def test_two_identical_predictions_make_child(self):
        # Keys engineered to collide in a 2-slot node.
        index = LippIndex.build(np.array([0, 1, 1000]))
        assert index.n_keys == 3
        for key in (0, 1, 1000):
            assert index.lookup(key) == key

    @settings(max_examples=30, deadline=None)
    @given(keys=key_sets)
    def test_build_roundtrip_property(self, keys):
        arr = np.asarray(keys, dtype=np.int64)
        index = LippIndex.build(arr)
        assert index.n_keys == arr.size
        for key in arr[:: max(1, arr.size // 25)].tolist():
            assert index.lookup(key) == key

    def test_iter_keys_sorted(self, clustered_keys):
        index = LippIndex.build(clustered_keys)
        assert np.array_equal(
            np.fromiter(index.iter_keys(), dtype=np.int64), clustered_keys
        )

    def test_custom_m_and_model(self, small_keys):
        """CSV-style rebuild: explicit slot count and model."""
        model = fit_linear(small_keys)
        node = LippNode.from_keys(
            small_keys, small_keys, level=2, m=small_keys.size, model=model
        )
        keys, values = node.collect_arrays()
        assert np.array_equal(keys, small_keys)
        assert np.array_equal(values, small_keys)


class TestInsert:
    def test_insert_into_empty_slot(self, small_keys):
        index = LippIndex.build(small_keys, slot_factor=2.0)
        probe = int(small_keys[0]) + 1
        if probe in set(small_keys.tolist()):
            pytest.skip("value occupied")
        index.insert(probe, 42)
        assert index.lookup(probe) == 42

    def test_insert_conflict_creates_child(self):
        index = LippIndex.build(np.array([0, 10, 20, 30], dtype=np.int64))
        height_before = index.height()
        # Dense cluster around one slot forces conflicts.
        for key in (11, 12, 13):
            index.insert(key, key)
        assert index.height() >= height_before
        for key in (11, 12, 13):
            assert index.lookup(key) == key

    def test_insert_update(self, small_keys):
        index = LippIndex.build(small_keys)
        key = int(small_keys[4])
        index.insert(key, 7)
        assert index.lookup(key) == 7
        assert index.n_keys == small_keys.size

    def test_adversarial_sequential_height_bounded(self, small_keys):
        """The conflict-rebuild adjustment must keep chains shallow."""
        index = LippIndex.build(small_keys)
        base = int(small_keys[-1]) + 1000
        for key in range(base, base + 4000):
            index.insert(key, 1)
        assert index.height() <= 15
        for key in range(base, base + 4000, 199):
            assert index.lookup(key) == 1

    def test_n_subtree_counters_consistent(self, small_keys, rng):
        index = LippIndex.build(small_keys)
        new = np.setdiff1d(np.unique(rng.integers(0, 10**8, 500)), small_keys)
        for key in new.tolist():
            index.insert(key, key)
        assert index.n_keys == small_keys.size + new.size
        assert index.root.n_subtree_keys == index.n_keys

    @settings(max_examples=25, deadline=None)
    @given(keys=key_sets)
    def test_insert_matches_dict_oracle(self, keys):
        arr = np.asarray(keys, dtype=np.int64)
        half = max(1, arr.size // 2)
        index = LippIndex.build(arr[:half])
        oracle = {int(k): int(k) for k in arr[:half]}
        for key in arr[half:].tolist():
            index.insert(key, key * 2)
            oracle[key] = key * 2
        for key, value in oracle.items():
            assert index.lookup(key) == value
        assert list(index.iter_keys()) == sorted(oracle)


class TestStructure:
    def test_key_level_matches_lookup_depth(self, clustered_keys):
        index = LippIndex.build(clustered_keys)
        key = int(clustered_keys[17])
        assert index.key_level(key) == index.lookup_stats(key).levels

    def test_key_level_raises_for_missing(self, clustered_keys):
        index = LippIndex.build(clustered_keys)
        with pytest.raises(IndexStateError):
            index.key_level(int(clustered_keys[0]) - 1)

    def test_deeper_levels_cost_more(self, clustered_keys):
        """The Fig. 1 premise: query cost grows with key depth."""
        index = LippIndex.build(clustered_keys)
        levels = index.key_levels(clustered_keys)
        if levels.min() == levels.max():
            pytest.skip("index too shallow on this draw")
        shallow_key = int(clustered_keys[np.argmin(levels)])
        deep_key = int(clustered_keys[np.argmax(levels)])
        assert (
            index.lookup_stats(deep_key).simulated_ns()
            > index.lookup_stats(shallow_key).simulated_ns()
        )

    def test_node_levels_and_counts(self, clustered_keys):
        index = LippIndex.build(clustered_keys)
        levels = index.node_levels()
        assert len(levels) == index.node_count()
        assert max(levels) == index.height()

    def test_empty_slot_fraction_bounds(self, clustered_keys):
        fraction = LippIndex.build(clustered_keys).empty_slot_fraction()
        assert 0.0 <= fraction < 1.0

    def test_subtree_collect_sorted(self, clustered_keys):
        index = LippIndex.build(clustered_keys)
        keys, values = index.root.collect_arrays()
        assert np.array_equal(keys, clustered_keys)
        assert np.all(np.diff(keys) > 0)
