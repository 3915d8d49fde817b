"""CDF smoothing with a quadratic indexing function (extension).

Section 1 of the paper notes that "CDF smoothing can naturally extend
to more complex (e.g., quadratic) functions".  This module provides
that extension: greedy virtual-point insertion where the refitted
model is ``f(k) = a·k² + b·k + c``.

The incremental machinery mirrors the linear case with two more
moments.  For the pivoted keys ``t_i = k_i - pivot`` we maintain

    S1..S4 = Σ t, Σ t², Σ t³, Σ t⁴     and    Sy, Sty, Stty

under rank shifts, solve the 3×3 weighted-normal equations per
candidate, and read the SSE in O(1).  Gaps are no longer guaranteed a
single interior stationary point in closed form, so each gap is scored
at its endpoints plus a geometric ladder of interior probes — still a
tiny candidate set per gap, preserving the spirit of the Section 4.2
filter.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass

import numpy as np

from .linear_model import QuadraticModel
from .segment_stats import sum_of_rank_squares, sum_of_ranks, validate_keys
from .smoothing import SmoothingResult, greedy_insert, resolve_budget

__all__ = ["QuadraticSmoothingResult", "smooth_keys_quadratic", "quadratic_fit_and_loss"]

#: Interior probes per gap (besides the two endpoints).
PROBES_PER_GAP = 3


def quadratic_fit_and_loss(
    keys: np.ndarray, ranks: np.ndarray | None = None
) -> tuple[QuadraticModel, float]:
    """Quadratic OLS fit and SSE (reference path, O(n))."""
    keys = validate_keys(keys)
    if ranks is None:
        ranks = np.arange(keys.size, dtype=np.float64)
    else:
        ranks = np.asarray(ranks, dtype=np.float64)
    pivot = int(keys[0])
    t = (keys - np.int64(pivot)).astype(np.float64)
    scale = float(t.max() - t.min()) or 1.0
    u = t / scale
    design = np.column_stack([u * u, u, np.ones_like(u)])
    coeffs, *__ = np.linalg.lstsq(design, ranks, rcond=None)
    a_u, b_u, c_u = (float(c) for c in coeffs)
    model = QuadraticModel(a_u / (scale * scale), b_u / scale, c_u, pivot)
    err = model.predict_array(keys) - ranks
    return model, float(np.dot(err, err))


class _QuadState:
    """Moment sums for O(1) quadratic refits under point insertion.

    Mirrors the incremental design of
    :class:`~repro.core.segment_stats.SegmentStats`: points and the two
    prefix arrays live in amortised capacity-doubling buffers, and each
    :meth:`commit` updates the moments in O(1) plus an O(shift) memmove
    — the normalisation ``scale`` is fixed by the endpoint span at
    construction, and virtual points are strictly interior, so no
    commit can ever change it.
    """

    def __init__(self, keys: np.ndarray):
        n = int(keys.size)
        self._buf = keys.copy()
        self._size = n
        self.pivot = int(keys[0])
        t = (keys - np.int64(self.pivot)).astype(np.float64)
        self.scale = float(t.max() - t.min()) or 1.0
        u = t / self.scale
        y = np.arange(n, dtype=np.float64)
        self.s1 = float(u.sum())
        self.s2 = float(np.dot(u, u))
        u2 = u * u
        self.s3 = float(np.dot(u2, u))
        self.s4 = float(np.dot(u2, u2))
        self.suy = float(np.dot(u, y))
        self.su2y = float(np.dot(u2, y))
        # prefix sums for suffix queries under a rank shift
        self._prefix_u_buf = np.empty(n, dtype=np.float64)
        np.cumsum(u, out=self._prefix_u_buf)
        self._prefix_u2_buf = np.empty(n, dtype=np.float64)
        np.cumsum(u2, out=self._prefix_u2_buf)

    @property
    def points(self) -> np.ndarray:
        return self._buf[: self._size]

    @property
    def n(self) -> int:
        return self._size

    @property
    def prefix_u(self) -> np.ndarray:
        return self._prefix_u_buf[: self._size]

    @property
    def prefix_u2(self) -> np.ndarray:
        return self._prefix_u2_buf[: self._size]

    def _suffix(self, prefix: np.ndarray, rank: int) -> float:
        total = float(prefix[self._size - 1])
        if rank <= 0:
            return total
        if rank >= self._size:
            return 0.0
        return total - float(prefix[rank - 1])

    def _suffixes(self, prefix: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_suffix` over an array of ranks."""
        n = self._size
        total = float(prefix[n - 1])
        idx = np.clip(ranks - 1, 0, n - 1)
        return np.where(
            ranks <= 0, total, np.where(ranks >= n, 0.0, total - prefix[idx])
        )

    def candidate_loss(self, value: int, rank: int) -> float:
        """SSE of the quadratic refit if (value, rank) were inserted."""
        n = self.n
        big_n = n + 1
        uv = (float(value - self.pivot)) / self.scale
        s1 = self.s1 + uv
        s2 = self.s2 + uv * uv
        s3 = self.s3 + uv**3
        s4 = self.s4 + uv**4
        sy = sum_of_ranks(big_n)
        syy = sum_of_rank_squares(big_n)
        suy = self.suy + self._suffix(self.prefix_u, rank) + uv * rank
        su2y = self.su2y + self._suffix(self.prefix_u2, rank) + uv * uv * rank
        # Normal equations for [a, b, c] over (u², u, 1).
        gram = np.array(
            [[s4, s3, s2], [s3, s2, s1], [s2, s1, float(big_n)]], dtype=np.float64
        )
        rhs = np.array([su2y, suy, sy], dtype=np.float64)
        try:
            coeffs = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            return float("inf")
        a, b, c = (float(x) for x in coeffs)
        # SSE = Σy² - 2·coeffᵀrhs + coeffᵀ G coeff  (quadratic form)
        sse = syy - 2.0 * float(np.dot(coeffs, rhs)) + float(
            coeffs @ gram @ coeffs
        )
        return max(sse, 0.0)

    def best_candidate(self) -> tuple[int, float] | None:
        """Vectorised global best ``(value, loss)`` over every gap.

        Every gap contributes its endpoints plus a geometric ladder of
        interior probes; all candidates are scored in one batch — the
        3×3 normal equations become an ``(N, 3, 3)`` stacked solve.
        Falls back to the scalar path if the batched solve hits a
        singular system (the scalar path prices those as ``inf``).

        Ties resolve to the earliest gap (like the scalar loop) and,
        within a gap, to the fixed candidate order low → high →
        interior ladder (the scalar loop's ``set`` iteration order was
        arbitrary there; equal-loss candidates are interchangeable).
        """
        points = self.points
        lows = points[:-1] + 1
        highs = points[1:] - 1
        open_gaps = np.nonzero(highs >= lows)[0]
        if open_gaps.size == 0:
            return None
        lows = lows[open_gaps]
        highs = highs[open_gaps]
        ranks = open_gaps + 1
        spans = highs - lows
        # Candidate matrix: endpoints + interior ladder (dupes in tiny
        # gaps are harmless — equal values give equal losses).
        cols = [lows, highs]
        for j in range(1, PROBES_PER_GAP + 1):
            cols.append(lows + spans * j // (PROBES_PER_GAP + 1))
        values = np.concatenate(cols)
        value_ranks = np.tile(ranks, PROBES_PER_GAP + 2)
        losses = self._candidate_losses(values, value_ranks)
        if losses is None:
            # Singular batch: score candidates one by one (rare).
            losses = np.asarray(
                [self.candidate_loss(int(v), int(r)) for v, r in zip(values, value_ranks)]
            )
        # (candidate, gap) layout: pick the best per gap (candidate
        # order breaks within-gap ties), then the earliest best gap.
        per_gap = losses.reshape(PROBES_PER_GAP + 2, open_gaps.size)
        value_matrix = values.reshape(PROBES_PER_GAP + 2, open_gaps.size)
        cand_pick = np.argmin(per_gap, axis=0)
        gap_cols = np.arange(open_gaps.size)
        gap_losses = per_gap[cand_pick, gap_cols]
        best_gap = int(np.argmin(gap_losses))
        return (
            int(value_matrix[cand_pick[best_gap], best_gap]),
            float(gap_losses[best_gap]),
        )

    def _candidate_losses(self, values: np.ndarray, ranks: np.ndarray) -> np.ndarray | None:
        """Batched :meth:`candidate_loss`; None if any system is singular."""
        n = self._size
        big_n = n + 1
        uv = (values - np.int64(self.pivot)).astype(np.float64) / self.scale
        uv2 = uv * uv
        s1 = self.s1 + uv
        s2 = self.s2 + uv2
        s3 = self.s3 + uv2 * uv
        s4 = self.s4 + uv2 * uv2
        sy = sum_of_ranks(big_n)
        syy = sum_of_rank_squares(big_n)
        suy = self.suy + self._suffixes(self.prefix_u, ranks) + uv * ranks
        su2y = self.su2y + self._suffixes(self.prefix_u2, ranks) + uv2 * ranks
        m = values.size
        gram = np.empty((m, 3, 3), dtype=np.float64)
        gram[:, 0, 0] = s4
        gram[:, 0, 1] = gram[:, 1, 0] = s3
        gram[:, 0, 2] = gram[:, 2, 0] = gram[:, 1, 1] = s2
        gram[:, 1, 2] = gram[:, 2, 1] = s1
        gram[:, 2, 2] = float(big_n)
        rhs = np.stack([su2y, suy, np.full(m, sy)], axis=1)
        try:
            # trailing singleton axis: one RHS vector per stacked system
            coeffs = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            return None
        # SSE = Σy² - 2·coeffᵀrhs + coeffᵀ G coeff  (quadratic form)
        sse = (
            syy
            - 2.0 * np.einsum("ij,ij->i", coeffs, rhs)
            + np.einsum("ij,ijk,ik->i", coeffs, gram, coeffs)
        )
        return np.maximum(sse, 0.0)

    def commit(self, value: int) -> None:
        """Insert *value*: O(1) moment updates + O(shift) memmoves."""
        value = int(value)
        rank = int(np.searchsorted(self.points, value))
        n = self._size
        if n + 1 > self._buf.size:
            new_cap = max(2 * self._buf.size, n + 1)
            for name in ("_buf", "_prefix_u_buf", "_prefix_u2_buf"):
                old = getattr(self, name)
                grown = np.empty(new_cap, dtype=old.dtype)
                grown[:n] = old[:n]
                setattr(self, name, grown)
        uv = float(value - self.pivot) / self.scale
        uv2 = uv * uv
        self.suy += self._suffix(self.prefix_u, rank) + uv * rank
        self.su2y += self._suffix(self.prefix_u2, rank) + uv2 * rank
        self.s1 += uv
        self.s2 += uv2
        self.s3 += uv2 * uv
        self.s4 += uv2 * uv2
        self._buf[rank + 1 : n + 1] = self._buf[rank:n]
        self._buf[rank] = value
        for buf, delta in ((self._prefix_u_buf, uv), (self._prefix_u2_buf, uv2)):
            prev = float(buf[rank - 1]) if rank > 0 else 0.0
            buf[rank + 1 : n + 1] = buf[rank:n] + delta
            buf[rank] = prev + delta
        self._size = n + 1


@dataclass
class QuadraticSmoothingResult(SmoothingResult):
    """Outcome of a quadratic smoothing run: a
    :class:`~repro.core.smoothing.SmoothingResult` whose refitted
    indexing function is quadratic."""

    model: QuadraticModel


def smooth_keys_quadratic(
    keys: np.ndarray | list,
    alpha: float | None = None,
    budget: int | None = None,
) -> QuadraticSmoothingResult:
    """Greedy CDF smoothing against a refitted quadratic model.

    On curved CDFs the quadratic starts from a much lower loss than
    the linear model, so fewer virtual points are needed; the paper's
    caveat applies — the model itself is costlier to evaluate at query
    time (the ``ablation_quadratic`` claim of ``benchmarks/paper.py``).
    """
    original = validate_keys(keys)
    lam = resolve_budget(original.size, alpha, budget)
    start = time.perf_counter()
    state = _QuadState(original)
    virtual, trace, stopped_early = greedy_insert(
        state.best_candidate,
        state.commit,
        lam,
        quadratic_fit_and_loss(original)[1],
        operator.lt,
    )
    model, final = quadratic_fit_and_loss(state.points)
    return QuadraticSmoothingResult(
        original_keys=original,
        virtual_points=virtual,
        points=state.points.copy(),
        original_loss=trace[0],
        final_loss=final,
        model=model,
        budget=lam,
        loss_trace=trace,
        stopped_early=stopped_early,
        elapsed_seconds=time.perf_counter() - start,
    )
