"""Linear (and quadratic) indexing models.

A learned index approximates the cumulative distribution function of a
sorted key list with an *indexing function* ``f(k) ~= rank(k)``.  The
paper (Section 3) focuses on linear functions because they are what
ALEX, LIPP and SALI use internally; Section 1 notes the technique
"can naturally extend to more complex (e.g., quadratic) functions",
which :class:`QuadraticModel` provides.

Models are immutable value objects of the *pivot* form::

    f(k) = slope * (k - pivot) + intercept

The pivot (an integer key) lets the subtraction happen in exact
integer arithmetic before any float conversion.  This matters: int64
keys such as S2 cell ids exceed float64's 53-bit mantissa, so the
naive ``slope * k + b`` form silently loses the low key bits both at
fit and at predict time.  A pivot of 0 recovers the classic form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import InvalidKeysError

__all__ = ["LinearModel", "QuadraticModel", "fit_linear", "fit_quadratic"]


_INT64 = np.iinfo(np.int64)


def delta_may_wrap(keys: np.ndarray, pivot_min: int, pivot_max: int) -> bool:
    """Whether ``keys - pivot`` can leave int64 for some pivot in
    ``[pivot_min, pivot_max]`` — one min/max test per batch, so a batch
    that cannot overflow pays no per-element check."""
    return bool(keys.size) and (
        (pivot_min < 0 and int(keys.max()) > _INT64.max + pivot_min)
        or (pivot_max > 0 and int(keys.min()) < _INT64.min + pivot_max)
    )


def exact_delta(keys: np.ndarray, pivot) -> np.ndarray:
    """``float64(keys - pivot)`` for int64 operands whose difference may
    not fit int64 (*pivot*: a scalar, or an array parallel to *keys*).

    The magnitude always fits uint64 — wrapping int64 subtraction leaves
    the right bits — and uint64 -> float64 rounds correctly, so each
    element is bit-equal to ``float(int(key) - int(pivot))``, which is
    what :meth:`LinearModel.predict` computes per key.
    """
    below = keys < pivot
    magnitude = np.where(below, pivot - keys, keys - pivot)
    t = magnitude.view(np.uint64).astype(np.float64)
    return np.negative(t, out=t, where=below)


def _delta(keys, pivot: int):
    """``keys - pivot`` computed exactly for integer inputs."""
    arr = np.asarray(keys)
    if np.issubdtype(arr.dtype, np.integer):
        if delta_may_wrap(arr, pivot, pivot):
            return exact_delta(arr.astype(np.int64, copy=False), np.int64(pivot))
        return (arr - np.int64(pivot)).astype(np.float64)
    return arr.astype(np.float64) - float(pivot)


@dataclass(frozen=True)
class LinearModel:
    """An affine indexing function ``f(k) = slope*(k - pivot) + intercept``."""

    slope: float
    intercept: float
    pivot: int = 0

    def predict(self, key) -> float:
        """Return the (unclamped, fractional) predicted position of *key*."""
        if isinstance(key, (int, np.integer)):
            return self.slope * float(int(key) - self.pivot) + self.intercept
        return self.slope * (float(key) - self.pivot) + self.intercept

    def predict_array(self, keys) -> np.ndarray:
        """Vectorised :meth:`predict` over a numpy array of keys."""
        return self.slope * _delta(keys, self.pivot) + self.intercept

    def predict_clamped(self, key, size: int) -> int:
        """Predicted integer slot in ``[0, size - 1]``.

        This is the form used when the model addresses a physical array
        of ``size`` slots (ALEX gapped arrays, LIPP node slots).
        """
        if size <= 0:
            raise ValueError("size must be positive")
        pos = int(round(self.predict(key)))
        if pos < 0:
            return 0
        if pos >= size:
            return size - 1
        return pos

    def scaled(self, factor: float) -> "LinearModel":
        """Return a copy whose output is multiplied by *factor*.

        Used when a model fitted over ranks ``0..n-1`` must address an
        array expanded to ``factor * n`` slots.
        """
        return LinearModel(self.slope * factor, self.intercept * factor, self.pivot)


@dataclass(frozen=True)
class QuadraticModel:
    """A quadratic indexing function in pivot form:
    ``f(k) = a*t^2 + b*t + c`` with ``t = k - pivot``.

    Provided for the paper's extension remark; the smoothing machinery
    itself operates on linear models.
    """

    a: float
    b: float
    c: float
    pivot: int = 0

    def predict(self, key) -> float:
        """Predicted (fractional) position of *key*."""
        t = float(int(key) - self.pivot) if isinstance(key, (int, np.integer)) else float(key) - self.pivot
        return (self.a * t + self.b) * t + self.c

    def predict_array(self, keys) -> np.ndarray:
        """Vectorised :meth:`predict` over a numpy array of keys."""
        t = _delta(keys, self.pivot)
        return (self.a * t + self.b) * t + self.c

    def predict_clamped(self, key, size: int) -> int:
        """Predicted integer slot clamped into ``[0, size - 1]``."""
        if size <= 0:
            raise ValueError("size must be positive")
        pos = int(round(self.predict(key)))
        return min(max(pos, 0), size - 1)


def _prepare(keys, positions):
    arr = np.asarray(keys)
    if arr.ndim != 1:
        raise InvalidKeysError("keys must be one-dimensional")
    if arr.size == 0:
        raise InvalidKeysError("keys must be non-empty")
    if np.issubdtype(arr.dtype, np.integer):
        pivot = int(arr[0])
    else:
        pivot = 0
    t = _delta(arr, pivot)
    if positions is None:
        y = np.arange(arr.size, dtype=np.float64)
    else:
        y = np.asarray(positions, dtype=np.float64)
        if y.shape != t.shape:
            raise InvalidKeysError("keys and positions must have equal length")
    return t, y, pivot


def fit_linear(
    keys: Sequence[int] | np.ndarray,
    positions: Sequence[int] | np.ndarray | None = None,
) -> LinearModel:
    """Fit ``f(k) = w*k + b`` minimising the SSE against *positions*.

    If *positions* is omitted, ranks ``0..n-1`` are used, i.e. the model
    is fitted against the empirical CDF of *keys* (Eq. 1 of the paper).

    A single key fits a constant function (slope 0).  Integer keys are
    pivoted on the first key before any float conversion, so 64-bit
    magnitudes survive the fit exactly.
    """
    t, y, pivot = _prepare(keys, positions)
    if t.size == 1:
        return LinearModel(0.0, float(y[0]), pivot)
    t_mean = float(t.mean())
    y_mean = float(y.mean())
    tc = t - t_mean
    var = float(np.dot(tc, tc))
    if var == 0.0:
        # All keys identical; predict the mean position.
        return LinearModel(0.0, y_mean, pivot)
    cov = float(np.dot(tc, y - y_mean))
    slope = cov / var
    intercept = y_mean - slope * t_mean
    return LinearModel(slope, intercept, pivot)


def fit_quadratic(
    keys: Sequence[int] | np.ndarray,
    positions: Sequence[int] | np.ndarray | None = None,
) -> QuadraticModel:
    """Fit ``f(k) = a*k^2 + b*k + c`` against *positions* (default: ranks).

    Falls back to the linear fit embedded in a quadratic (``a = 0``)
    when there are fewer than three distinct keys.
    """
    t, y, pivot = _prepare(keys, positions)
    if np.unique(t).size < 3:
        lin = fit_linear(keys, positions)
        return QuadraticModel(0.0, lin.slope, lin.intercept, lin.pivot)
    # Scale for conditioning, then undo the transform.
    span = float(t.max() - t.min()) or 1.0
    u = t / span
    coeffs = np.polyfit(u, y, deg=2)
    a_u, b_u, c_u = (float(c) for c in coeffs)
    return QuadraticModel(a_u / (span * span), b_u / span, c_u, pivot)
