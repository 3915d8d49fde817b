"""Tests for the Eq. 22 cost model and its calibration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cost_model import (
    CostConstants,
    calibrate_from_samples,
    expected_search_steps,
    node_cost,
    rebuild_cost_delta,
)
from repro.core.exceptions import CalibrationError


class TestCostConstants:
    def test_query_ns_formula(self):
        consts = CostConstants(traversal_ns=10.0, search_ns=2.0, base_ns=5.0)
        assert consts.query_ns(3, 4) == pytest.approx(5 + 30 + 8)

    def test_defaults_positive(self):
        consts = CostConstants()
        assert consts.traversal_ns > 0
        assert consts.search_ns > 0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CostConstants().traversal_ns = 1.0  # type: ignore[misc]


class TestExpectedSearchSteps:
    def test_zero_loss_is_one_step(self):
        assert expected_search_steps(0.0, 100) == pytest.approx(1.0)

    def test_monotone_in_loss(self):
        steps = [expected_search_steps(loss, 100) for loss in (0, 100, 10_000, 10**6)]
        assert steps == sorted(steps)

    def test_empty_node(self):
        assert expected_search_steps(5.0, 0) == 0.0

    def test_log2_scaling(self):
        # rms error 3 → log2(4) + 1 = 3 steps
        assert expected_search_steps(9.0 * 100, 100) == pytest.approx(3.0)


class TestNodeCost:
    def test_eq22(self):
        consts = CostConstants(traversal_ns=7.0, search_ns=3.0, base_ns=0.0)
        assert node_cost(2.0, 4, consts) == pytest.approx(3 * 2 + 7 * 4)

    def test_default_constants(self):
        assert node_cost(1.0, 1) == pytest.approx(
            CostConstants().search_ns + CostConstants().traversal_ns
        )


class TestRebuildCostDelta:
    def test_merging_deep_subtree_is_negative(self):
        """Flattening a 3-level subtree with equal loss must help."""
        delta = rebuild_cost_delta(
            loss_before=1000.0,
            n_before=100,
            avg_level_before=4.0,
            loss_after=1000.0,
            n_after=100,
            level_after=2,
        )
        assert delta < 0

    def test_worse_fit_can_offset_traversal_gain(self):
        consts = CostConstants(traversal_ns=1.0, search_ns=100.0)
        delta = rebuild_cost_delta(
            loss_before=0.0,
            n_before=100,
            avg_level_before=3.0,
            loss_after=10**8,
            n_after=100,
            level_after=2,
            constants=consts,
        )
        assert delta > 0


class TestCalibration:
    def test_recovers_synthetic_constants(self, rng):
        true = CostConstants(traversal_ns=30.0, search_ns=8.0, base_ns=15.0)
        samples = []
        for __ in range(200):
            levels = int(rng.integers(1, 8))
            steps = int(rng.integers(0, 12))
            noise = float(rng.normal(0, 0.5))
            samples.append((levels, steps, true.query_ns(levels, steps) + noise))
        fitted = calibrate_from_samples(samples)
        assert fitted.traversal_ns == pytest.approx(true.traversal_ns, rel=0.05)
        assert fitted.search_ns == pytest.approx(true.search_ns, rel=0.05)

    def test_rejects_too_few_samples(self):
        with pytest.raises(CalibrationError):
            calibrate_from_samples([(1, 1, 10.0), (2, 2, 20.0)])

    def test_rejects_degenerate(self):
        with pytest.raises(CalibrationError):
            calibrate_from_samples([(1, 1, 0.0)] * 10)

    def test_clamps_negative_coefficients(self):
        # Traversal correlation inverted, search positive: the
        # traversal constant clamps to 0 instead of going negative.
        samples = [
            (lev, st, 100.0 - lev + 9.0 * st)
            for lev in range(1, 8)
            for st in range(0, 8)
        ]
        fitted = calibrate_from_samples(samples)
        assert fitted.traversal_ns == 0.0
        assert fitted.search_ns == pytest.approx(9.0, rel=1e-6)

    def test_fully_inverted_data_raises(self):
        samples = [(lev, 0, 100.0 - lev) for lev in range(1, 20)]
        with pytest.raises(CalibrationError):
            calibrate_from_samples(samples)
