"""Workload-aware CDF smoothing (extension).

The paper optimises the *unweighted* SSE (Eq. 2); SALI's probability
model (Section 2.2) shows why a workload view helps — frequently
queried keys matter more.  This extension generalises Algorithm 1 to a
query-weighted loss::

    L_w(K) = Σ_i  w_i · (f(k_i) - rank_i)²

where ``w_i`` is the (relative) query frequency of key ``k_i`` and the
model ``f`` is refitted by *weighted* least squares.  Virtual points
carry no queries, so they contribute weight 0: inserting one helps
purely by shifting the ranks of the real keys above it.

A pleasant consequence: within one gap every candidate value shares
the insertion rank and contributes nothing itself, so the weighted
loss is **constant across the gap** — the greedy step only has to
choose the best *rank*, in O(1) per gap via weighted prefix sums, and
can place the point anywhere in the gap (we use the middle, which
maximises the room left for future insertions on both sides).
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidKeysError
from .linear_model import LinearModel
from .segment_stats import validate_keys
from .smoothing import GreedySummary, greedy_insert, resolve_budget

__all__ = ["WeightedSmoothingResult", "weighted_loss", "smooth_keys_weighted"]


def _validate_weights(weights, n: int) -> np.ndarray:
    arr = np.asarray(weights, dtype=np.float64)
    if arr.shape != (n,):
        raise InvalidKeysError(f"weights must have shape ({n},), got {arr.shape}")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InvalidKeysError("weights must be finite and non-negative")
    if float(arr.sum()) <= 0.0:
        raise InvalidKeysError("weights must not be all zero")
    return arr


def weighted_loss(
    keys: np.ndarray,
    weights: np.ndarray,
    ranks: np.ndarray | None = None,
) -> tuple[LinearModel, float]:
    """Weighted-OLS model and loss ``L_w`` for *keys* at *ranks*."""
    keys = validate_keys(keys)
    w = _validate_weights(weights, keys.size)
    if ranks is None:
        y = np.arange(keys.size, dtype=np.float64)
    else:
        y = np.asarray(ranks, dtype=np.float64)
    pivot = int(keys[0])
    t = (keys - np.int64(pivot)).astype(np.float64)
    total_w = float(w.sum())
    t_mean = float(np.dot(w, t)) / total_w
    y_mean = float(np.dot(w, y)) / total_w
    tc = t - t_mean
    var = float(np.dot(w * tc, tc))
    if var <= 0.0:
        model = LinearModel(0.0, y_mean, pivot)
    else:
        cov = float(np.dot(w * tc, y - y_mean))
        slope = cov / var
        model = LinearModel(slope, y_mean - slope * t_mean, pivot)
    err = model.predict_array(keys) - y
    return model, float(np.dot(w, err * err))


@dataclass
class WeightedSmoothingResult(GreedySummary):
    """Outcome of a workload-aware smoothing run."""

    original_keys: np.ndarray
    weights: np.ndarray
    virtual_points: list[int]
    key_ranks: np.ndarray
    original_loss: float
    final_loss: float
    model: LinearModel
    budget: int
    loss_trace: list[float] = field(default_factory=list)
    stopped_early: bool = False
    elapsed_seconds: float = 0.0

    @property
    def points(self) -> np.ndarray:
        """Combined sorted point set (keys + virtual points)."""
        return np.sort(
            np.concatenate(
                [self.original_keys, np.asarray(self.virtual_points, dtype=np.int64)]
            )
        )


class _WeightedState:
    """Weighted sufficient statistics with O(1) per-rank evaluation.

    Maintains, over the real keys with their *current* ranks:
    ``W, Swt, Swtt, Swy, Swyy, Swty`` (t = pivoted key) plus suffix
    sums of ``w`` and ``w·t`` indexed by current rank, so that the loss
    after inserting a virtual point at rank ``r`` is closed-form.

    Mirrors the incremental design of
    :class:`~repro.core.segment_stats.SegmentStats`: the point, weight
    and suffix arrays live in amortised capacity-doubling buffers and
    each :meth:`commit` updates the moments and suffix sums in place
    (one O(shift) memmove per array) instead of re-deriving everything
    from scratch.  A committed virtual point carries weight 0, so
    ``W/Swt/Swtt`` are invariant and only the rank-dependent moments
    move — by exactly the suffix terms :meth:`best` already
    evaluates.
    """

    def __init__(self, keys: np.ndarray, weights: np.ndarray):
        n = int(keys.size)
        self._size = n
        self.pivot = int(keys[0])
        self._keys_buf = keys.astype(np.int64)
        self._w_buf = weights.astype(np.float64)
        self._t_buf = (keys - np.int64(self.pivot)).astype(np.float64)
        w, t = self._w_buf, self._t_buf
        y = np.arange(n, dtype=np.float64)
        self.W = float(w.sum())
        self.Swt = float(np.dot(w, t))
        self.Swtt = float(np.dot(w, t * t))
        self.Swy = float(np.dot(w, y))
        self.Swyy = float(np.dot(w, y * y))
        self.Swty = float(np.dot(w, t * y))
        # suffix sums over *key index* (ranks are monotone in index);
        # one trailing 0 sentinel so index ``size`` is addressable.
        self._suffix_w_buf = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])
        self._suffix_wt_buf = np.concatenate([np.cumsum((w * t)[::-1])[::-1], [0.0]])
        self._suffix_wy_buf = np.concatenate([np.cumsum((w * y)[::-1])[::-1], [0.0]])

    # ------------------------------------------------------------------
    # Buffer views (read-only)
    # ------------------------------------------------------------------
    @property
    def keys(self) -> np.ndarray:
        return self._keys_buf[: self._size]

    @property
    def w(self) -> np.ndarray:
        return self._w_buf[: self._size]

    @property
    def ranks(self) -> np.ndarray:
        """Current ranks — always ``0..size-1`` since commits keep the
        arrays sorted and contiguous."""
        return np.arange(self._size, dtype=np.float64)

    def _grow(self) -> None:
        """Double every buffer (amortised O(1) per commit)."""
        new_cap = max(2 * self._keys_buf.size, self._size + 1)

        def grown(buf: np.ndarray, used: int, cap: int) -> np.ndarray:
            out = np.empty(cap, dtype=buf.dtype)
            out[:used] = buf[:used]
            return out

        self._keys_buf = grown(self._keys_buf, self._size, new_cap)
        self._w_buf = grown(self._w_buf, self._size, new_cap)
        self._t_buf = grown(self._t_buf, self._size, new_cap)
        self._suffix_w_buf = grown(self._suffix_w_buf, self._size + 1, new_cap + 1)
        self._suffix_wt_buf = grown(self._suffix_wt_buf, self._size + 1, new_cap + 1)
        self._suffix_wy_buf = grown(self._suffix_wy_buf, self._size + 1, new_cap + 1)

    def best(self) -> tuple[int, float] | None:
        """``(value, loss)`` of the best gap — the loss is the same
        anywhere inside a gap, so the value is its middle; None if no
        gap exists.

        Vectorised: the loss for every gap comes from the same suffix
        arrays, so all gaps are scored in a handful of numpy ops.
        """
        lows = self.keys[:-1] + 1
        highs = self.keys[1:] - 1
        open_gaps = np.nonzero(highs >= lows)[0]
        if open_gaps.size == 0:
            return None
        first_shifted = open_gaps + 1
        ws = self._suffix_w_buf[first_shifted]
        wts = self._suffix_wt_buf[first_shifted]
        wys = self._suffix_wy_buf[first_shifted]
        swy = self.Swy + ws
        swyy = self.Swyy + 2.0 * wys + ws
        swty = self.Swty + wts
        var = self.Swtt - self.Swt * self.Swt / self.W
        total = swyy - swy * swy / self.W
        if var <= 0.0:
            losses = np.maximum(total, 0.0)
        else:
            cov = swty - self.Swt * swy / self.W
            losses = np.maximum(total - cov * cov / var, 0.0)
        best = int(np.argmin(losses))
        gap = int(open_gaps[best])
        value = (int(self._keys_buf[gap]) + int(self._keys_buf[gap + 1])) // 2
        return value, float(losses[best])

    def commit(self, value: int) -> None:
        """Insert the virtual point *value* (free, inside a gap).

        The virtual point enters the arrays (for gap bookkeeping) with
        weight 0, so ``W/Swt/Swtt`` are untouched; the rank-dependent
        moments absorb exactly the suffix terms of :meth:`best`'s
        closed form, and the suffix arrays shift in place.
        """
        p = int(np.searchsorted(self.keys, value))
        old = self._size
        if old + 1 > self._keys_buf.size:
            self._grow()
        sw, swt, swy_arr = self._suffix_w_buf, self._suffix_wt_buf, self._suffix_wy_buf
        ws = float(sw[p])
        wts = float(swt[p])
        wys = float(swy_arr[p])
        # Rank-dependent moments: every key with index >= p gains +1.
        self.Swy += ws
        self.Swyy += 2.0 * wys + ws
        self.Swty += wts
        # suffix_wy: entries at or below p gain the shifted weight mass,
        # entries above shift right and gain their own suffix weight.
        old_len = old + 1  # including the trailing sentinel
        tail = swy_arr[p:old_len] + sw[p:old_len]
        swy_arr[: p + 1] += ws
        swy_arr[p + 1 : old_len + 1] = tail
        # suffix_w / suffix_wt: the zero-weight point duplicates the
        # suffix value at p (numpy handles the overlapping copy).
        sw[p + 1 : old_len + 1] = sw[p:old_len]
        swt[p + 1 : old_len + 1] = swt[p:old_len]
        # point arrays
        self._keys_buf[p + 1 : old + 1] = self._keys_buf[p:old]
        self._keys_buf[p] = value
        self._w_buf[p + 1 : old + 1] = self._w_buf[p:old]
        self._w_buf[p] = 0.0
        self._t_buf[p + 1 : old + 1] = self._t_buf[p:old]
        self._t_buf[p] = float(value - self.pivot)
        self._size = old + 1

    def model(self) -> LinearModel:
        var = self.Swtt - self.Swt * self.Swt / self.W
        y_mean = self.Swy / self.W
        if var <= 0.0:
            return LinearModel(0.0, y_mean, self.pivot)
        cov = self.Swty - self.Swt * self.Swy / self.W
        slope = cov / var
        return LinearModel(slope, y_mean - slope * self.Swt / self.W, self.pivot)


def smooth_keys_weighted(
    keys: np.ndarray | list,
    weights: np.ndarray | list,
    alpha: float | None = None,
    budget: int | None = None,
) -> WeightedSmoothingResult:
    """Greedy workload-aware smoothing.

    Like :func:`repro.core.smoothing.smooth_keys` but minimising the
    query-weighted loss; hot regions of the key space attract the
    virtual points.  Uniform weights recover (a mid-gap-placement
    variant of) the unweighted algorithm.
    """
    original = validate_keys(keys)
    w = _validate_weights(weights, original.size)
    lam = resolve_budget(original.size, alpha, budget)
    start = time.perf_counter()
    state = _WeightedState(original.copy(), w.copy())
    virtual, trace, stopped_early = greedy_insert(
        state.best, state.commit, lam, weighted_loss(original, w)[1], operator.lt
    )
    real_mask = state.w > 0.0
    key_ranks = state.ranks[real_mask].astype(np.int64)
    return WeightedSmoothingResult(
        original_keys=original,
        weights=w,
        virtual_points=virtual,
        key_ranks=key_ranks,
        original_loss=trace[0],
        final_loss=trace[-1],
        model=state.model(),
        budget=lam,
        loss_trace=trace,
        stopped_early=stopped_early,
        elapsed_seconds=time.perf_counter() - start,
    )
