"""Stress tests and failure injection across the public API.

These tests widen coverage beyond the per-module suites: mixed
insert/lookup fuzzing against a dict oracle, adversarial key
distributions, and systematic bad-input sweeps over every public entry
point (errors must be this package's exception types, never silent
corruption or foreign tracebacks).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CsvConfig,
    InvalidKeysError,
    ReproError,
    SmoothingBudgetError,
    adapter_for,
    apply_csv,
    smooth_keys,
)
from repro.indexes import AlexIndex, BPlusTree, LippIndex, SaliIndex

operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "lookup", "lookup_missing"]),
        st.integers(min_value=0, max_value=50_000),
    ),
    min_size=10,
    max_size=250,
)


@pytest.mark.parametrize("cls", [LippIndex, AlexIndex, SaliIndex])
class TestMixedWorkloadFuzz:
    @settings(max_examples=20, deadline=None)
    @given(ops=operations)
    def test_mixed_ops_match_oracle(self, cls, ops):
        base = np.asarray([10, 1_000, 40_000, 90_000], dtype=np.int64)
        index = cls.build(base)
        oracle = {int(k): int(k) for k in base}
        for op, key in ops:
            if op == "insert":
                index.insert(key, key * 3)
                oracle[key] = key * 3
            elif op == "lookup":
                probe = key if key in oracle else next(iter(oracle))
                assert index.lookup(probe) == oracle[probe]
            else:
                if key not in oracle:
                    assert index.lookup(key) is None
        assert index.n_keys == len(oracle)
        assert list(index.iter_keys()) == sorted(oracle)


class TestAdversarialDistributions:
    def test_two_extreme_clusters(self):
        """Min/max keys 2^62 apart with dense clusters at both ends."""
        left = np.arange(0, 3000, 3, dtype=np.int64)
        right = (2**62) + np.arange(0, 3000, 3, dtype=np.int64)
        keys = np.concatenate([left, right])
        for cls in (LippIndex, AlexIndex):
            index = cls.build(keys)
            for key in keys[::97].tolist():
                assert index.lookup(int(key)) == int(key), cls.name

    def test_geometric_key_growth(self):
        """Exponentially growing keys: worst case for one linear model."""
        keys = np.unique((2.0 ** np.arange(1, 60, 0.5)).astype(np.int64))
        for cls in (LippIndex, AlexIndex, SaliIndex):
            index = cls.build(keys)
            index.verify_against(keys, keys)

    def test_smoothing_on_extreme_span(self):
        keys = np.asarray([0, 1, 2, 2**61, 2**61 + 1, 2**61 + 7], dtype=np.int64)
        result = smooth_keys(keys, budget=3)
        assert result.final_loss <= result.original_loss + 1e-6
        assert all(0 < v < 2**61 + 7 for v in result.virtual_points)

    def test_csv_on_extreme_span(self):
        rng = np.random.default_rng(0)
        keys = np.unique(
            np.concatenate(
                [
                    rng.integers(0, 10_000, 1500),
                    2**60 + rng.integers(0, 10_000, 1500),
                ]
            )
        )
        index = LippIndex.build(keys)
        apply_csv(adapter_for(index), CsvConfig(alpha=0.1))
        index.verify_against(keys, keys)


class TestBadInputSweep:
    """Every public entry point must fail loudly with a ReproError."""

    BAD_KEY_ARRAYS = (
        [],
        [3, 1, 2],
        [1, 1, 2],
        np.zeros((2, 2), dtype=np.int64),
        [1.5, 2.5],
    )

    @pytest.mark.parametrize("bad", BAD_KEY_ARRAYS, ids=["empty", "unsorted", "dup", "2d", "frac"])
    def test_smooth_keys_rejects(self, bad):
        with pytest.raises(ReproError):
            smooth_keys(bad, alpha=0.1)

    @pytest.mark.parametrize("bad", BAD_KEY_ARRAYS, ids=["empty", "unsorted", "dup", "2d", "frac"])
    def test_index_build_rejects(self, bad):
        for cls in (LippIndex, AlexIndex, SaliIndex, BPlusTree):
            with pytest.raises(ReproError):
                cls.build(bad)

    def test_smoothing_rejects_conflicting_budget(self, small_keys):
        with pytest.raises(SmoothingBudgetError):
            smooth_keys(small_keys, alpha=0.1, budget=5)

    def test_csv_config_rejects_bad_alpha(self):
        with pytest.raises(SmoothingBudgetError):
            CsvConfig(alpha=1.5)

    def test_dataset_generator_rejects_tiny_n(self):
        from repro.datasets import generate

        with pytest.raises(InvalidKeysError):
            generate("osm", 3)

    def test_errors_are_also_builtin_types(self):
        """Library errors subclass the matching builtin for ergonomics."""
        assert issubclass(InvalidKeysError, ValueError)
        assert issubclass(SmoothingBudgetError, ValueError)


class TestScaleSmoke:
    """One larger run to catch quadratic blow-ups early."""

    def test_smoothing_50k_keys_under_budget(self):
        rng = np.random.default_rng(1)
        keys = np.unique(rng.integers(0, 10**9, 50_000))
        result = smooth_keys(keys, budget=100)
        assert result.elapsed_seconds < 30.0
        assert result.final_loss < result.original_loss

    def test_lipp_build_and_query_50k(self):
        rng = np.random.default_rng(2)
        keys = np.unique(rng.integers(0, 10**10, 50_000))
        index = LippIndex.build(keys)
        for key in keys[::499].tolist():
            assert index.lookup(key) == key
