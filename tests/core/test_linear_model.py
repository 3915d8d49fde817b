"""Unit tests for repro.core.linear_model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import InvalidKeysError
from repro.core.linear_model import LinearModel, QuadraticModel, fit_linear, fit_quadratic

sorted_unique_ints = st.lists(
    st.integers(min_value=-(2**40), max_value=2**40), min_size=2, max_size=60, unique=True
).map(sorted)


class TestLinearModel:
    def test_predict_is_affine(self):
        model = LinearModel(2.0, 3.0)
        assert model.predict(5) == 13.0

    def test_predict_array_matches_scalar(self):
        model = LinearModel(0.5, -1.0)
        keys = np.array([1, 2, 10])
        assert np.allclose(model.predict_array(keys), [model.predict(k) for k in keys])

    def test_predict_clamped_lower_bound(self):
        model = LinearModel(1.0, -100.0)
        assert model.predict_clamped(5, 10) == 0

    def test_predict_clamped_upper_bound(self):
        model = LinearModel(1.0, 100.0)
        assert model.predict_clamped(5, 10) == 9

    def test_predict_clamped_interior_rounds(self):
        model = LinearModel(1.0, 0.4)
        assert model.predict_clamped(3, 10) == 3

    def test_predict_clamped_rejects_empty(self):
        with pytest.raises(ValueError):
            LinearModel(1.0, 0.0).predict_clamped(1, 0)

    def test_scaled_multiplies_output(self):
        model = LinearModel(2.0, 3.0).scaled(10.0)
        assert model.predict(1) == 50.0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            LinearModel(1.0, 0.0).slope = 2.0  # type: ignore[misc]


class TestFitLinear:
    def test_exact_on_linear_data(self):
        keys = np.arange(0, 100, 5)
        model = fit_linear(keys)
        assert model.slope == pytest.approx(0.2)
        assert model.intercept == pytest.approx(0.0, abs=1e-9)

    def test_matches_polyfit(self, rng):
        keys = np.unique(rng.integers(0, 10**6, 200))
        model = fit_linear(keys)
        ref = np.polyfit(keys.astype(float), np.arange(keys.size), 1)
        ref_pred = ref[0] * keys.astype(float) + ref[1]
        assert model.slope == pytest.approx(float(ref[0]), rel=1e-8)
        assert np.allclose(model.predict_array(keys), ref_pred, atol=1e-6)

    def test_explicit_positions(self):
        keys = np.array([0, 10, 20])
        model = fit_linear(keys, [0, 5, 10])
        assert model.predict(20) == pytest.approx(10.0)

    def test_single_key_constant(self):
        model = fit_linear([42], [7])
        assert model.slope == 0.0
        assert model.predict(42) == 7.0

    def test_identical_keys_predict_mean(self):
        model = fit_linear([5, 5, 5], [0, 1, 2])
        assert model.slope == 0.0
        assert model.predict(5) == pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(InvalidKeysError):
            fit_linear([])

    def test_rejects_2d(self):
        with pytest.raises(InvalidKeysError):
            fit_linear(np.zeros((2, 2)))

    def test_rejects_mismatched_positions(self):
        with pytest.raises(InvalidKeysError):
            fit_linear([1, 2, 3], [0, 1])

    def test_huge_keys_numerically_stable(self):
        base = 2**55
        keys = base + np.arange(0, 1000, 7, dtype=np.int64)
        model = fit_linear(keys)
        predictions = model.predict_array(keys)
        assert np.allclose(predictions, np.arange(keys.size), atol=1e-3)

    @settings(max_examples=50, deadline=None)
    @given(keys=sorted_unique_ints)
    def test_ols_is_loss_optimal(self, keys):
        """No slope/intercept perturbation can beat the fitted loss."""
        arr = np.asarray(keys, dtype=np.int64)
        model = fit_linear(arr)
        ranks = np.arange(arr.size, dtype=np.float64)

        def loss(m: LinearModel) -> float:
            err = m.predict_array(arr) - ranks
            return float(np.dot(err, err))

        base = loss(model)
        for ds, db in [(1e-6, 0.0), (-1e-6, 0.0), (0.0, 1e-3), (0.0, -1e-3)]:
            perturbed = LinearModel(model.slope + ds, model.intercept + db)
            assert loss(perturbed) >= base - 1e-6


class TestQuadratic:
    def test_exact_on_quadratic_data(self):
        keys = np.arange(20)
        positions = 2.0 * keys**2 + 3.0 * keys + 1.0
        model = fit_quadratic(keys, positions)
        assert model.a == pytest.approx(2.0, rel=1e-6)
        assert model.b == pytest.approx(3.0, rel=1e-5)
        assert model.c == pytest.approx(1.0, rel=1e-4, abs=1e-4)

    def test_predict_array(self):
        model = QuadraticModel(1.0, 0.0, 0.0)
        assert np.allclose(model.predict_array(np.array([2, 3])), [4.0, 9.0])

    def test_falls_back_to_linear_for_two_keys(self):
        model = fit_quadratic([10, 20])
        assert model.a == 0.0
        assert model.predict(20) == pytest.approx(1.0)

    def test_predict_clamped(self):
        model = QuadraticModel(0.0, 1.0, 0.0)
        assert model.predict_clamped(100, 10) == 9
        with pytest.raises(ValueError):
            model.predict_clamped(1, 0)

    def test_beats_linear_on_curved_cdf(self, rng):
        keys = np.unique((np.linspace(0, 100, 200) ** 2).astype(np.int64))
        ranks = np.arange(keys.size, dtype=np.float64)
        lin = fit_linear(keys)
        quad = fit_quadratic(keys)
        lin_loss = float(np.sum((lin.predict_array(keys) - ranks) ** 2))
        quad_loss = float(np.sum((quad.predict_array(keys) - ranks) ** 2))
        assert quad_loss < lin_loss
