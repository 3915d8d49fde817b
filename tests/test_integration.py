"""Cross-module integration and end-to-end property tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import (
    CsvConfig,
    adapter_for,
    apply_csv,
    poison_keys,
    smooth_keys,
)
from repro.datasets import generate
from repro.indexes import INDEX_FAMILIES, AlexIndex, LippIndex, SaliIndex

key_sets = st.lists(
    st.integers(min_value=0, max_value=10**8), min_size=20, max_size=250, unique=True
).map(sorted)


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_index_families_buildable(self, small_keys):
        for name, cls in INDEX_FAMILIES.items():
            index = cls.build(small_keys)
            assert index.lookup(int(small_keys[0])) == int(small_keys[0]), name


class TestSmoothingImprovesIndexes:
    """The paper's end-to-end claim: smoothing the key set makes the
    learned index structurally better."""

    @pytest.mark.parametrize("dataset", ["facebook", "genome"])
    def test_lipp_conflicts_drop_on_smoothed_points(self, dataset):
        keys = generate(dataset, 3000)
        result = smooth_keys(keys, alpha=0.3)
        # Index the ORIGINAL keys with the node sized/modelled by the
        # smoothed point set (what a CSV rebuild does) and compare the
        # conflict count against a plain build.
        from repro.indexes.lipp import LippNode

        plain = LippNode.from_keys(keys, keys, level=1)
        smoothed = LippNode.from_keys(
            keys, keys, level=1, m=int(result.points.size), model=result.model
        )
        assert len(smoothed.children) <= len(plain.children)

    def test_poisoning_degrades_what_smoothing_improves(self):
        keys = generate("facebook", 1500)
        smoothed = smooth_keys(keys, budget=100)
        poisoned = poison_keys(keys, budget=100)
        assert smoothed.final_loss < poisoned.final_loss


@pytest.mark.parametrize("cls", [LippIndex, SaliIndex, AlexIndex])
class TestCsvEndToEnd:
    @pytest.mark.parametrize("dataset", ["facebook", "osm"])
    def test_csv_then_full_verification(self, cls, dataset):
        keys = generate(dataset, 3000)
        index = cls.build(keys)
        apply_csv(adapter_for(index), CsvConfig(alpha=0.1))
        index.verify_against(keys, keys)

    def test_csv_then_insert_then_query(self, cls, rng):
        keys = generate("covid", 2500)
        index = cls.build(keys)
        apply_csv(adapter_for(index), CsvConfig(alpha=0.2))
        new = np.setdiff1d(np.unique(rng.integers(0, 10**9, 800)), keys)
        for key in new.tolist():
            index.insert(int(key), -int(key))
        for key in new[::19].tolist():
            assert index.lookup(int(key)) == -int(key)
        for key in keys[::37].tolist():
            assert index.lookup(int(key)) == int(key)


class TestRandomisedEndToEnd:
    @settings(max_examples=15, deadline=None)
    @given(keys=key_sets)
    def test_lipp_csv_property(self, keys):
        arr = np.asarray(keys, dtype=np.int64)
        index = LippIndex.build(arr)
        apply_csv(adapter_for(index), CsvConfig(alpha=0.2))
        for key in arr[:: max(1, arr.size // 30)].tolist():
            assert index.lookup(key) == key

    @settings(max_examples=10, deadline=None)
    @given(keys=key_sets)
    def test_alex_csv_property(self, keys):
        arr = np.asarray(keys, dtype=np.int64)
        index = AlexIndex.build(arr)
        apply_csv(adapter_for(index), CsvConfig(alpha=0.2))
        for key in arr[:: max(1, arr.size // 30)].tolist():
            assert index.lookup(key) == key

    @settings(max_examples=15, deadline=None)
    @given(keys=key_sets, alpha=st.sampled_from([0.05, 0.1, 0.4]))
    def test_smoothed_points_always_contain_originals(self, keys, alpha):
        arr = np.asarray(keys, dtype=np.int64)
        result = smooth_keys(arr, alpha=alpha)
        assert set(arr.tolist()) <= set(result.points.tolist())
        assert result.points.size == arr.size + result.n_virtual
