"""Unit + property tests for the O(1) loss machinery (Section 4.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import InvalidKeysError
from repro.core.loss import exact_refit_loss, fit_and_loss
from repro.core.segment_stats import (
    SegmentStats,
    sum_of_rank_squares,
    sum_of_ranks,
    validate_keys,
)
from repro.core.smoothing import smooth_keys

key_sets = st.lists(
    st.integers(min_value=0, max_value=5_000), min_size=3, max_size=40, unique=True
).map(sorted)


class TestValidateKeys:
    def test_accepts_sorted_unique(self):
        out = validate_keys([1, 2, 5])
        assert out.dtype == np.int64
        assert out.tolist() == [1, 2, 5]

    def test_accepts_integer_valued_floats(self):
        assert validate_keys(np.array([1.0, 2.0])).tolist() == [1, 2]

    def test_rejects_fractional_floats(self):
        with pytest.raises(InvalidKeysError):
            validate_keys(np.array([1.5, 2.0]))

    def test_rejects_empty(self):
        with pytest.raises(InvalidKeysError):
            validate_keys([])

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidKeysError):
            validate_keys([3, 1, 2])

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidKeysError):
            validate_keys([1, 1, 2])

    def test_rejects_2d(self):
        with pytest.raises(InvalidKeysError):
            validate_keys(np.zeros((2, 3), dtype=np.int64))


class TestRankSums:
    def test_sum_of_ranks(self):
        assert sum_of_ranks(5) == 0 + 1 + 2 + 3 + 4

    def test_sum_of_rank_squares(self):
        assert sum_of_rank_squares(5) == 0 + 1 + 4 + 9 + 16

    def test_zero_points(self):
        assert sum_of_ranks(0) == 0.0
        assert sum_of_rank_squares(0) == 0.0


class TestBaseLoss:
    def test_perfectly_linear_keys_have_zero_loss(self):
        stats = SegmentStats(np.arange(0, 100, 3))
        assert stats.base_loss() == pytest.approx(0.0, abs=1e-9)

    def test_two_points_zero_loss(self):
        assert SegmentStats([5, 900]).base_loss() == 0.0

    def test_matches_exact_oracle(self, small_keys):
        stats = SegmentStats(small_keys)
        exact = float(exact_refit_loss(small_keys.tolist()))
        assert stats.base_loss() == pytest.approx(exact, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(keys=key_sets)
    def test_base_loss_matches_exact_oracle_property(self, keys):
        stats = SegmentStats(np.asarray(keys, dtype=np.int64))
        exact = float(exact_refit_loss(keys))
        assert stats.base_loss() == pytest.approx(exact, rel=1e-7, abs=1e-7)

    def test_base_model_predicts_ranks(self):
        keys = np.arange(10, 110, 10)
        model = SegmentStats(keys).base_model()
        assert np.allclose(model.predict_array(keys), np.arange(10), atol=1e-9)

    def test_huge_key_magnitudes(self):
        keys = 2**60 + np.arange(0, 500, 5, dtype=np.int64)
        stats = SegmentStats(keys)
        assert stats.base_loss() == pytest.approx(0.0, abs=1e-3)

    def test_keys_spanning_2_63_or_more(self):
        """Centering a key more than 2^63 above the reference must not
        wrap int64: the statistics, the candidate losses and smoothing
        agree with the pivoted fit and the exact oracle."""
        i64 = np.iinfo(np.int64)
        wide = {i64.min + 5, -10**18, -5, 7, 10**18, i64.max - 5}
        for keys in (sorted(wide), sorted(wide | set(range(-40, 40, 3)))):
            keys = np.asarray(keys, dtype=np.int64)
            stats = SegmentStats(keys)
            assert stats.base_loss() == pytest.approx(fit_and_loss(keys)[1], rel=1e-9)
            values = np.array([-2**62, 0, 2**62], dtype=np.int64)
            ranks = np.searchsorted(keys, values)
            scalar = [stats.evaluate(int(v)).loss for v in values]
            assert np.allclose(stats.evaluate_many(values, ranks), scalar, rtol=1e-12)
            inside = np.concatenate([values, stats.open_gaps().ends.ravel()])
            assert stats.centered(inside).tolist() == [
                float(v - stats.reference) for v in inside.tolist()
            ]
        result = smooth_keys(keys, budget=3)
        assert result.n_virtual == 3
        assert result.loss_trace == sorted(result.loss_trace, reverse=True)
        exact = float(exact_refit_loss(result.points.tolist()))
        assert result.final_loss == pytest.approx(exact, rel=1e-9)


class TestCandidateEvaluation:
    def test_matches_exact_oracle(self, toy_keys):
        stats = SegmentStats(toy_keys)
        for value in (3, 15, 22, 27):
            ev = stats.evaluate(value)
            merged = sorted(toy_keys.tolist() + [value])
            exact = float(exact_refit_loss(merged))
            assert ev.loss == pytest.approx(exact, rel=1e-9), value

    @settings(max_examples=60, deadline=None)
    @given(keys=key_sets, data=st.data())
    def test_candidate_loss_matches_oracle_property(self, keys, data):
        stats = SegmentStats(np.asarray(keys, dtype=np.int64))
        free = [v for v in range(keys[0] + 1, keys[-1]) if v not in set(keys)]
        if not free:
            return
        value = data.draw(st.sampled_from(free))
        ev = stats.evaluate(value)
        exact = float(exact_refit_loss(sorted(keys + [value])))
        assert ev.loss == pytest.approx(exact, rel=1e-6, abs=1e-6)

    def test_evaluate_rejects_existing_point(self, toy_keys):
        stats = SegmentStats(toy_keys)
        with pytest.raises(InvalidKeysError):
            stats.evaluate(int(toy_keys[3]))

    def test_evaluate_many_matches_scalar(self, toy_keys):
        stats = SegmentStats(toy_keys)
        values = np.array([3, 15, 22, 27])
        ranks = np.array([stats.insertion_rank(int(v)) for v in values])
        vec = stats.evaluate_many(values, ranks)
        scalar = [stats.evaluate(int(v)).loss for v in values]
        assert np.allclose(vec, scalar, rtol=1e-12)

    def test_rank_is_number_of_smaller_points(self, toy_keys):
        stats = SegmentStats(toy_keys)
        ev = stats.evaluate(15)
        assert ev.rank == int(np.sum(toy_keys < 15))

    def test_model_refit_reduces_loss_vs_unrefitted(self, toy_keys):
        """The returned model must be optimal for the merged set."""
        stats = SegmentStats(toy_keys)
        ev = stats.evaluate(15)
        merged = np.sort(np.append(toy_keys, 15))
        ranks = np.arange(merged.size, dtype=np.float64)
        err = ev.model.predict_array(merged) - ranks
        assert float(np.dot(err, err)) == pytest.approx(ev.loss, rel=1e-9)


class TestCommit:
    def test_commit_inserts_sorted(self, toy_keys):
        stats = SegmentStats(toy_keys)
        rank = stats.commit(15)
        assert rank == int(np.sum(toy_keys < 15))
        assert stats.points.tolist() == sorted(toy_keys.tolist() + [15])

    def test_commit_rejects_duplicate(self, toy_keys):
        stats = SegmentStats(toy_keys)
        with pytest.raises(InvalidKeysError):
            stats.commit(int(toy_keys[0]))

    def test_commit_then_evaluate_uses_merged_base(self, toy_keys):
        stats = SegmentStats(toy_keys)
        stats.commit(15)
        ev = stats.evaluate(16)
        merged = sorted(toy_keys.tolist() + [15, 16])
        assert ev.loss == pytest.approx(float(exact_refit_loss(merged)), rel=1e-9)

    def test_suffix_key_sum_bounds(self, toy_keys):
        stats = SegmentStats(toy_keys)
        assert stats.suffix_key_sum(0) == pytest.approx(sum(k - stats.reference for k in toy_keys))
        assert stats.suffix_key_sum(stats.n) == 0.0

    def test_n_and_extremes(self, toy_keys):
        stats = SegmentStats(toy_keys)
        assert stats.n == toy_keys.size
        assert stats.key_min == int(toy_keys[0])
        assert stats.key_max == int(toy_keys[-1])
