"""Tests for the Section 6.1 evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.metrics import (
    PROMOTABLE_LEVEL,
    improvement_pct,
    node_reduction_pct,
    promoted_percentage,
    relative_increase_pct,
    total_time_saved_ns,
)
from repro.indexes import LippIndex


class TestLevelArrays:
    def test_key_levels_are_aligned(self, small_keys):
        index = LippIndex.build(small_keys)
        levels = index.key_levels(small_keys)
        assert levels.shape == small_keys.shape and levels.dtype == np.int64
        assert levels.min() >= 1

    def test_promotable_threshold(self):
        before = np.asarray([3, 3, 2, 4])
        after = np.asarray([2, 3, 1, 4])
        # Promotable at 3: keys 0, 1, 3, of which key 0 moved up.
        assert promoted_percentage(before, after) == pytest.approx(100.0 / 3)
        # At 2 key 2 is promotable too, and moved up.
        assert promoted_percentage(before, after, threshold=2) == pytest.approx(50.0)


class TestPromotedKeys:
    def test_percentage(self):
        before = np.asarray([3, 3, 4, 2])
        after = np.asarray([2, 3, 4, 2])
        # Keys 0, 1 (level 3) and 2 (level 4) are promotable; key 0 moved up.
        assert promoted_percentage(before, after) == pytest.approx(100.0 / 3)

    def test_ignores_demotions_and_shallow_promotions(self):
        before = np.asarray([3, 4, 2])
        after = np.asarray([4, 4, 1])  # demoted; unchanged; promoted from level 2
        assert promoted_percentage(before, after) == 0.0

    def test_percentage_empty_promotable(self):
        before = np.asarray([1, 2])
        after = np.asarray([1, 1])
        assert promoted_percentage(before, after) == 0.0


class TestScalarMetrics:
    def test_relative_increase(self):
        assert relative_increase_pct(100, 110) == pytest.approx(10.0)
        assert relative_increase_pct(100, 90) == pytest.approx(-10.0)
        assert relative_increase_pct(0, 50) == 0.0

    def test_improvement(self):
        assert improvement_pct(200.0, 150.0) == pytest.approx(25.0)
        assert improvement_pct(0.0, 10.0) == 0.0

    def test_total_time_saved(self):
        assert total_time_saved_ns(1000.0, 600.0) == pytest.approx(400.0)

    def test_node_reduction(self):
        before = [1, 2, 2, 3, 3, 3, 4]  # 4 nodes at level >= 3
        after = [1, 2, 2, 3]
        assert node_reduction_pct(before, after) == pytest.approx(75.0)

    def test_node_reduction_no_deep_nodes(self):
        assert node_reduction_pct([1, 2], [1]) == 0.0

    def test_promotable_level_constant(self):
        assert PROMOTABLE_LEVEL == 3
