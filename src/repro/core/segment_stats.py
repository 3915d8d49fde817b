"""Sufficient statistics for O(1) candidate-loss evaluation.

This module implements the "efficient loss calculation" of Section 4.1
of the paper.  The paper's Eqs. 5-16 separate the loss terms that
depend only on the original key set from the terms contributed by a
candidate virtual point, so that, after an O(n) precomputation, the
refitted-model loss ``L(K ∪ {k_v})`` costs O(1) per candidate.

We realise the same separation with ordinary-least-squares sufficient
statistics.  For a sorted key list ``K`` with ranks ``0..n-1`` define

    Sk  = Σ k_i        Skk = Σ k_i²       Sky = Σ k_i · rank(k_i)

Inserting a virtual point with value ``k_v`` and insertion rank ``y_v``
(the number of keys smaller than ``k_v``) shifts the rank of every key
with rank ≥ y_v up by one.  The combined statistics become

    Sk'  = Sk + k_v
    Skk' = Skk + k_v²
    Sky' = Sky + suffix_key_sum(y_v) + k_v · y_v
    Sy'  = 0 + 1 + ... + n           (independent of y_v!)
    Syy' = 0² + 1² + ... + n²        (independent of y_v!)

where ``suffix_key_sum(y_v) = Σ_{rank ≥ y_v} k_i`` comes from a prefix
sum precomputed once per committed state.  With those statistics the
OLS refit (Eqs. 6-7 / 15-16) and the refitted SSE are closed-form:

    cov = Sky' - Sk'·Sy'/N      var = Skk' - Sk'²/N
    w = cov / var               b = Sy'/N - w·Sk'/N
    SSE = (Syy' - Sy'²/N) - cov²/var

All key sums are computed over *centered* keys (``k - ref``) so that
64-bit key magnitudes do not lose the covariance to floating-point
cancellation.  Keys that span 2^63 or more would wrap the int64
subtraction, so centering goes through
:func:`~repro.core.linear_model.exact_delta` wherever that can happen.
:mod:`repro.core.loss` provides an exact Fraction-based reference used
by the property tests to validate this fast path.

Incremental commits
-------------------

:meth:`SegmentStats.commit` is the hot mutation of Algorithm 1 — one
call per committed virtual point.  It updates the statistics
*incrementally* instead of rebuilding them:

* the point array and the prefix-sum array live in amortised
  capacity-doubling buffers, so a commit costs one ``O(shift)``
  memmove (``shift`` = points above the insertion rank) instead of a
  fresh ``np.insert`` allocation;
* ``Sk/Skk/Sky`` are maintained as exact Python integers (centered
  keys are integers), so the incremental update after each commit is
  *bit-identical* to a from-scratch rebuild — the parity the property
  tests in ``tests/core/test_incremental_stats.py`` assert;
* the prefix array is kept in exact ``int64`` while the worst-case
  partial sum provably fits (``n · span < 2^62``); pathological spans
  degrade once to the legacy float path, which recomputes from scratch
  per commit and therefore stays trivially rebuild-identical;
* the open-gap table (:meth:`SegmentStats.open_gaps`: every gap's ends,
  insertion rank, exact suffix key sum and centered ends) lives in
  capacity buffers too.  The one gap that holds the committed value
  splits into at most two, gaps to its left add the value to their
  suffix sums and gaps to its right move up one rank — ``O(shift)``
  like the point buffer.  On the float path the table keeps everything
  but the suffix sums, which are then read from the prefix array.

Candidate evaluation reads the float mirrors of the integer sums, so
:meth:`evaluate_many` and the greedy smoother's gap scan over the table
remain pure float64 array kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidKeysError
from .linear_model import LinearModel, exact_delta

__all__ = ["CandidateEvaluation", "OpenGaps", "SegmentStats", "validate_keys"]

#: Exact-int64 prefix sums are used while ``n_points * span`` stays
#: below this bound (headroom under the 2^63 int64 limit).
_INT64_SAFE_BOUND = 2**62

#: Rows of the open-gap tables (one column per open gap): the int64
#: table holds the ends, the rank and the exact suffix sum, the float64
#: one the ends centered on the reference, then the ends themselves.
_LOW, _HIGH, _RANK, _SUFFIX = range(4)
_RANK_STEP = np.array([[0], [0], [1], [0]], dtype=np.int64)


def validate_keys(keys: np.ndarray | list) -> np.ndarray:
    """Validate and normalise a key array.

    Returns a 1-D ``int64`` numpy array.  Raises
    :class:`~repro.core.exceptions.InvalidKeysError` if the input is
    empty, not one-dimensional, unsorted, or contains duplicates.
    """
    arr = np.asarray(keys)
    if arr.ndim != 1:
        raise InvalidKeysError("keys must be one-dimensional")
    if arr.size == 0:
        raise InvalidKeysError("keys must be non-empty")
    if not np.issubdtype(arr.dtype, np.integer):
        as_int = arr.astype(np.int64)
        if not np.array_equal(as_int.astype(arr.dtype), arr):
            raise InvalidKeysError("keys must be integer-valued")
        arr = as_int
    else:
        arr = arr.astype(np.int64)
    if arr.size > 1:
        # Neighbours are compared, not subtracted: a gap of 2**63 or
        # more would wrap in int64 and read as a descent.
        if np.any(arr[1:] < arr[:-1]):
            raise InvalidKeysError("keys must be sorted ascending")
        if np.any(arr[1:] == arr[:-1]):
            raise InvalidKeysError("keys must not contain duplicates")
    return arr


def sum_of_ranks(count: int) -> float:
    """Σ of ranks ``0..count-1`` (= Sy for *count* points)."""
    return count * (count - 1) / 2.0


def sum_of_rank_squares(count: int) -> float:
    """Σ of squared ranks ``0..count-1`` (= Syy for *count* points)."""
    return (count - 1) * count * (2 * count - 1) / 6.0


class OpenGaps(NamedTuple):
    """Every open gap of a point set, in key order (views into the
    stats' table; do not mutate).  Gap ``g`` holds the free values
    ``ends[0, g] .. ends[1, g]``, all of insertion rank ``ranks[g]``."""

    #: ``(2, G)`` int64: lows, then highs.
    ends: np.ndarray
    #: ``(2, G)`` float64: the ends minus the reference, exactly rounded.
    t: np.ndarray
    #: ``(2, G)`` float64: the ends themselves, as float64.
    bounds: np.ndarray
    #: ``(G,)`` int64 insertion ranks.
    ranks: np.ndarray
    #: ``(G,)`` :meth:`SegmentStats.suffix_key_sums` at ``ranks``: exact
    #: int64 on the exact path, float64 on the float path.
    suffix: np.ndarray


@dataclass(frozen=True)
class CandidateEvaluation:
    """Result of evaluating one candidate virtual point.

    Attributes:
        value: the candidate key value ``k_v``.
        rank: its insertion rank ``y_v`` in the current point set.
        loss: SSE of the model refitted over the combined point set
            (this is ``L_{f'}(K ∪ V)`` in the paper's notation).
        model: the refitted linear indexing function.
    """

    value: int
    rank: int
    loss: float
    model: LinearModel


class SegmentStats:
    """Sufficient statistics over a sorted point set (keys + committed
    virtual points).

    Instances are mutated only through :meth:`commit`; candidate
    evaluation is read-only and O(1).  :attr:`points` is a read-only
    view of the current sorted point array, which the greedy smoother
    also uses to enumerate gaps.
    """

    __slots__ = (
        "_buf",
        "_prefix",
        "_size",
        "_ref",
        "_span",
        "_exact",
        "_sk_int",
        "_skk_int",
        "_sky_int",
        "_sk",
        "_skk",
        "_sky",
        "_gaps",
        "_gap_table",
        "_gap_floats",
    )

    def __init__(self, keys: np.ndarray | list):
        points = validate_keys(keys)
        n = int(points.size)
        self._buf = points.copy()
        self._size = n
        self._ref = int(points[0])
        # The largest |point - reference| (commit widens it).
        self._span = int(points[-1]) - int(points[0])
        self._exact = (n + 1) * max(self._span, 1) < _INT64_SAFE_BOUND
        if self._exact:
            self._recompute_exact()
        else:
            self._recompute_float()
        self._build_gap_table()

    # ------------------------------------------------------------------
    # Statistic (re)computation
    # ------------------------------------------------------------------
    def _recompute_exact(self) -> None:
        """Exact integer sums + int64 prefix array (the common path).

        Centered keys are int64, so all three moments are integers; the
        guard in :meth:`commit` ensures every intermediate fits int64
        where an array is involved, while the scalar moments use Python
        arbitrary-precision integers.  The float mirrors are derived
        with exactly one rounding each, which makes incremental updates
        and from-scratch rebuilds agree bit-for-bit.
        """
        n = self._size
        centered = self._buf[:n] - np.int64(self._ref)
        span = max(self._span, 1)
        self._sk_int = int(centered.sum(dtype=np.int64))
        if span * span * n < _INT64_SAFE_BOUND:
            self._skk_int = int((centered * centered).sum(dtype=np.int64))
        else:
            self._skk_int = sum(x * x for x in centered.tolist())
        ranks = np.arange(n, dtype=np.int64)
        if span * n * n < _INT64_SAFE_BOUND:
            self._sky_int = int((centered * ranks).sum(dtype=np.int64))
        else:
            self._sky_int = sum(x * i for i, x in enumerate(centered.tolist()))
        self._prefix = np.empty(self._buf.size, dtype=np.int64)
        np.cumsum(centered, out=self._prefix[:n])
        self._sync_float_mirrors()

    def _recompute_float(self) -> None:
        """Legacy float path for pathological ``n·span`` magnitudes.

        Subtract the pivot in integer arithmetic BEFORE the float
        conversion: int64 keys exceed float64's mantissa, and losing
        the low bits here would corrupt every loss computation.
        """
        n = self._size
        centered = exact_delta(self._buf[:n], np.int64(self._ref))
        ranks = np.arange(n, dtype=np.float64)
        self._sk_int = self._skk_int = self._sky_int = None
        self._sk = float(centered.sum())
        self._skk = float(np.dot(centered, centered))
        self._sky = float(np.dot(centered, ranks))
        self._prefix = np.empty(self._buf.size, dtype=np.float64)
        np.cumsum(centered, out=self._prefix[:n])

    def _sync_float_mirrors(self) -> None:
        self._sk = float(self._sk_int)
        self._skk = float(self._skk_int)
        self._sky = float(self._sky_int)

    def _build_gap_table(self) -> None:
        """The open-gap tables, derived once from the point array.

        Column ``g`` of ``_gap_table`` is one open gap: its free values
        ``low .. high`` lie between the points of ranks ``rank - 1`` and
        ``rank``, and ``suffix`` is the sum of centered points with rank
        ≥ ``rank`` (kept on the exact path only).  The same column of
        ``_gap_floats`` holds low and high centered, then as floats.
        :meth:`commit` keeps both current.
        """
        points = self.points
        idx = np.flatnonzero(points[:-1] + 1 < points[1:])
        g = int(idx.size)
        self._gaps = g
        table = self._gap_table = np.empty((4, max(g, 1)), dtype=np.int64)
        ranks = np.add(idx, 1, out=table[_RANK, :g])
        np.add(points[idx], 1, out=table[_LOW, :g])
        np.subtract(points[ranks], 1, out=table[_HIGH, :g])
        if self._exact:
            np.subtract(np.int64(self._sk_int), self._prefix[idx], out=table[_SUFFIX, :g])
        floats = self._gap_floats = np.empty(table.shape, dtype=np.float64)
        floats[:2, :g] = self.centered(table[:2, :g])
        floats[2:, :g] = table[:2, :g]

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        """The current sorted point array (a view; do not mutate)."""
        return self._buf[: self._size]

    @property
    def n(self) -> int:
        """Number of points in the current set."""
        return self._size

    @property
    def key_min(self) -> int:
        return int(self._buf[0])

    @property
    def key_max(self) -> int:
        return int(self._buf[self._size - 1])

    @property
    def reference(self) -> int:
        """The integer pivot subtracted from every key."""
        return self._ref

    def centered_sums(self) -> tuple[float, float, float]:
        """Return ``(Sk, Skk, Sky)`` over centered keys for the base set."""
        return self._sk, self._skk, self._sky

    def suffix_key_sum(self, rank: int) -> float:
        """Σ of centered key values with rank ≥ *rank* in the base set."""
        if rank <= 0:
            return self._sk
        if rank >= self._size:
            return 0.0
        if self._exact:
            return float(self._sk_int - int(self._prefix[rank - 1]))
        return self._sk - float(self._prefix[rank - 1])

    def suffix_key_sums(self, ranks: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`suffix_key_sum` over an array of ranks.

        This is the kernel behind the greedy smoother's per-gap scan:
        one fancy-indexed read of the prefix array replaces a Python
        comprehension over every gap.
        """
        ranks = np.asarray(ranks, dtype=np.int64)
        n = self._size
        idx = np.clip(ranks - 1, 0, n - 1)
        if self._exact:
            inner = np.int64(self._sk_int) - self._prefix[idx]
            out = np.where(
                ranks <= 0,
                np.int64(self._sk_int),
                np.where(ranks >= n, np.int64(0), inner),
            ).astype(np.float64)
        else:
            out = np.where(
                ranks <= 0,
                self._sk,
                np.where(ranks >= n, 0.0, self._sk - self._prefix[idx]),
            )
        return out

    @property
    def n_gaps(self) -> int:
        """Number of open gaps (maximal runs of free values)."""
        return self._gaps

    def open_gaps(self) -> OpenGaps:
        """The open-gap table (see :class:`OpenGaps`).  On the float
        path the suffix sums are read from the prefix array."""
        g = self._gaps
        table, floats = self._gap_table, self._gap_floats
        ranks = table[_RANK, :g]
        suffix = table[_SUFFIX, :g] if self._exact else self.suffix_key_sums(ranks)
        return OpenGaps(table[:2, :g], floats[:2, :g], floats[2:, :g], ranks, suffix)

    def centered(self, values: np.ndarray) -> np.ndarray:
        """``float64(values - reference)``, exactly rounded, for int64
        *values* within the point range (a span of 2^63 or more would
        wrap the int64 subtraction, so it goes through
        :func:`~repro.core.linear_model.exact_delta`)."""
        if self._span < 2**63:
            return (values - np.int64(self._ref)).astype(np.float64)
        return exact_delta(values, np.int64(self._ref))

    def insertion_rank(self, value: int) -> int:
        """Rank a virtual point with this value would take (Eq. 9 context)."""
        return int(np.searchsorted(self.points, value, side="left"))

    # ------------------------------------------------------------------
    # Base-set loss and model (no virtual point)
    # ------------------------------------------------------------------
    def base_model(self) -> LinearModel:
        """OLS fit of the current point set against its ranks."""
        n = self.n
        if n == 1:
            return LinearModel(0.0, 0.0)
        sy = sum_of_ranks(n)
        cov = self._sky - self._sk * sy / n
        var = self._skk - self._sk * self._sk / n
        if var <= 0.0:
            return LinearModel(0.0, sy / n, self._ref)
        w = cov / var
        b_centered = sy / n - w * self._sk / n
        return LinearModel(w, b_centered, self._ref)

    def base_loss(self) -> float:
        """SSE of the OLS fit over the current point set (Eq. 1)."""
        n = self.n
        if n <= 2:
            return 0.0
        sy = sum_of_ranks(n)
        syy = sum_of_rank_squares(n)
        cov = self._sky - self._sk * sy / n
        var = self._skk - self._sk * self._sk / n
        total = syy - sy * sy / n
        if var <= 0.0:
            return max(total, 0.0)
        return max(total - cov * cov / var, 0.0)

    # ------------------------------------------------------------------
    # Candidate evaluation (O(1) each)
    # ------------------------------------------------------------------
    def candidate_terms(self, rank: int) -> tuple[float, float, float, float, float, float]:
        """Gap-level constants for a candidate inserted at *rank*.

        Returns ``(c0, c1, v0, v1, v2)`` plus the total sum of squares
        ``SyyC`` such that, for a candidate with centered value ``t``:

            cov(t) = c0 + c1·t
            var(t) = v0 + v1·t + v2·t²
            SSE(t) = SyyC - cov(t)² / var(t)

        These are the separated terms of the paper's Eqs. 10-16: the
        candidate value appears only through ``t`` while every constant
        is derived from base-set statistics.
        """
        n = self.n
        big_n = n + 1
        sy = sum_of_ranks(big_n)
        syy = sum_of_rank_squares(big_n)
        ybar = sy / big_n
        suffix = self.suffix_key_sum(rank)
        c0 = (self._sky + suffix) - self._sk * ybar
        c1 = rank - ybar
        v0 = self._skk - self._sk * self._sk / big_n
        v1 = -2.0 * self._sk / big_n
        v2 = 1.0 - 1.0 / big_n
        syyc = syy - sy * sy / big_n
        return c0, c1, v0, v1, v2, syyc

    def evaluate(self, value: int) -> CandidateEvaluation:
        """Loss and refitted model if *value* were inserted (Eq. 4).

        The value must not already be present.  O(log n) for the rank
        lookup, O(1) arithmetic.
        """
        value = int(value)
        rank = self.insertion_rank(value)
        if rank < self.n and int(self._buf[rank]) == value:
            raise InvalidKeysError(f"candidate {value} already exists in the point set")
        t = float(value - self._ref)
        c0, c1, v0, v1, v2, syyc = self.candidate_terms(rank)
        cov = c0 + c1 * t
        var = v0 + v1 * t + v2 * t * t
        big_n = self.n + 1
        sy = sum_of_ranks(big_n)
        if var <= 0.0:
            loss = max(syyc, 0.0)
            model = LinearModel(0.0, sy / big_n, self._ref)
        else:
            loss = max(syyc - cov * cov / var, 0.0)
            w = cov / var
            b_centered = sy / big_n - w * (self._sk + t) / big_n
            model = LinearModel(w, b_centered, self._ref)
        return CandidateEvaluation(value=value, rank=rank, loss=loss, model=model)

    def evaluate_many(self, values: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Vectorised candidate losses.

        *values* and *ranks* are parallel arrays; each entry is treated
        as an independent single-point insertion into the current set.
        Returns the array of refitted SSE losses.
        """
        values_arr = np.asarray(values)
        if np.issubdtype(values_arr.dtype, np.integer):
            t = exact_delta(values_arr.astype(np.int64, copy=False), np.int64(self._ref))
        else:
            t = values_arr.astype(np.float64) - float(self._ref)
        ranks = np.asarray(ranks, dtype=np.int64)
        n = self.n
        big_n = n + 1
        sy = sum_of_ranks(big_n)
        syy = sum_of_rank_squares(big_n)
        ybar = sy / big_n
        suffix = self.suffix_key_sums(ranks)
        cov = (self._sky + suffix - self._sk * ybar) + (ranks - ybar) * t
        var = (self._skk - self._sk * self._sk / big_n) + (-2.0 * self._sk / big_n) * t + (1.0 - 1.0 / big_n) * t * t
        syyc = syy - sy * sy / big_n
        with np.errstate(divide="ignore", invalid="ignore"):
            loss = syyc - np.where(var > 0.0, cov * cov / var, 0.0)
        return np.maximum(loss, 0.0)

    # ------------------------------------------------------------------
    # Commit (the "adjustment for multiple virtual points" of Sec. 4.1)
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        """Double the points/prefix buffers (amortised O(1) per commit)."""
        new_cap = max(2 * self._buf.size, self._size + 1)
        buf = np.empty(new_cap, dtype=np.int64)
        buf[: self._size] = self._buf[: self._size]
        self._buf = buf
        prefix = np.empty(new_cap, dtype=self._prefix.dtype)
        prefix[: self._size] = self._prefix[: self._size]
        self._prefix = prefix

    def _split_gap(self, value: int, rank: int, suffix: int | None) -> None:
        """Update the gap table for a commit of *value* at *rank*.

        The gap holding *value* (none when it lies outside the point
        range) becomes the ≤ 2 gaps either side of it; gaps to its left
        gain *value* in their suffix sums (*suffix*: the sum at *rank*
        before the commit, ``None`` off the exact path), gaps to its
        right move up one rank.  O(shift) memmoves, like the point buffer.
        """
        n = self._size  # already counts value
        g0 = self._gaps
        table, floats = self._gap_table, self._gap_floats
        at = int(table[_RANK, :g0].searchsorted(rank))
        # The free values next to value: below .. value - 1 and
        # value + 1 .. above (empty when the neighbour is adjacent).
        below = int(self._buf[rank - 1]) + 1 if rank > 0 else value
        above = int(self._buf[rank + 1]) - 1 if rank < n - 1 else value
        left, right = below < value, value < above
        tail = at + (0 < rank < n - 1)  # an interior value sits in gap ``at``
        dest = at + left + right
        g1 = g0 + dest - tail
        if g1 > table.shape[1]:
            table = self._gap_table = np.concatenate([table, np.empty_like(table)], axis=1)
            floats = self._gap_floats = np.concatenate([floats, np.empty_like(floats)], axis=1)
        if tail != dest:
            # One pass moves the tail and steps its ranks.
            np.add(table[:, tail:g0], _RANK_STEP, out=table[:, dest:g1])
            floats[:, dest:g1] = floats[:, tail:g0]
        else:
            table[_RANK, dest:g1] += 1
        c = value - self._ref
        if suffix is not None:
            table[_SUFFIX, :at] += c
        else:
            suffix = c = 0  # the suffix row is not kept off the exact path
        if left:
            self._set_gap(at, below, value - 1, rank, suffix + c)
        if right:
            self._set_gap(dest - 1, value + 1, above, rank + 1, suffix)
        self._gaps = g1

    def _set_gap(self, i: int, low: int, high: int, rank: int, suffix: int) -> None:
        self._gap_table[:, i] = low, high, rank, suffix
        self._gap_floats[:, i] = (
            float(low - self._ref), float(high - self._ref), float(low), float(high)
        )

    def commit(self, value: int) -> int:
        """Insert *value* into the point set and refresh statistics.

        Returns the rank at which the point was inserted.  On the exact
        path this is O(log n) for the rank lookup plus O(shift) for the
        buffer memmoves (shift = points above the insertion rank); the
        moment updates themselves are O(1).  Candidate evaluation
        afterwards treats the merged set as the new base set, exactly as
        the paper's "treat the key set with the previous virtual point
        inserted as the new original" step.
        """
        value = int(value)
        rank = self.insertion_rank(value)
        n = self._size
        if rank < n and int(self._buf[rank]) == value:
            raise InvalidKeysError(f"cannot commit duplicate point {value}")
        if n + 1 > self._buf.size:
            self._grow()
        # Shift the tail right by one (numpy handles the overlap).
        self._buf[rank + 1 : n + 1] = self._buf[rank:n]
        self._buf[rank] = value
        self._size = n + 1
        c = value - self._ref
        self._span = max(self._span, abs(c))
        suffix = None
        if self._exact and (n + 2) * max(self._span, 1) < _INT64_SAFE_BOUND:
            prev = int(self._prefix[rank - 1]) if rank > 0 else 0
            suffix = self._sk_int - prev
            self._prefix[rank + 1 : n + 1] = self._prefix[rank:n] + np.int64(c)
            self._prefix[rank] = prev + c
            self._sk_int += c
            self._skk_int += c * c
            self._sky_int += suffix + c * rank
            self._sync_float_mirrors()
        else:
            if self._exact:
                # One-time degrade: future prefix sums could overflow
                # int64, so fall back to the float recompute path; the
                # gap table's suffix row goes with them.
                self._exact = False
            self._recompute_float()
        self._split_gap(value, rank, suffix)
        return rank
