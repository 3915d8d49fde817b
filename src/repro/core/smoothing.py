"""CDF smoothing for a single linear model (Section 4, Algorithm 1).

Given a sorted key list ``K`` and a smoothing budget ``λ = α·n``, insert
up to ``λ`` virtual points so that the *refitted* linear indexing
function has minimal SSE over the combined point set (Eq. 4).  The
problem is NP-hard (Lemma 3.1); this module provides:

* :func:`smooth_keys` — the paper's greedy Algorithm 1.  One virtual
  point is chosen per iteration: every sub-sequence of free values is
  reduced to at most a handful of candidates via the derivative filter
  (Section 4.2), each candidate is scored with the O(1) incremental
  loss (Section 4.1), and the global minimiser is committed.  The loop
  stops early when no candidate reduces the loss (Line 27-28).
* :func:`smooth_keys_exhaustive` — the exponential exact solver used
  for the approximation-quality study (Table 2).
* :func:`smooth_keys_fixed_model` — an ablation that inserts points to
  fit the *original* (non-refitted) function, quantifying the value of
  refitting.

The greedy loop itself — ask the state for its best candidate, compare
it with the loss so far, commit it, extend the trace — is written once,
in :func:`greedy_insert`.  :func:`smooth_keys` and its ablations
:func:`~repro.core.weighted_smoothing.smooth_keys_weighted`,
:func:`~repro.core.quadratic_smoothing.smooth_keys_quadratic` and
:func:`~repro.core.poisoning.poison_keys` all run it; what differs
between them is the state's ``best`` / ``commit`` and the accept test.
(:func:`smooth_keys_fixed_model` scans gaps against a model that never
moves — another algorithm, with its own loop.)

The candidate scan is vectorised with numpy: for every gap
:func:`_score_gaps` scores the two endpoints plus a closed-form
interior point — for smoothing the stationary point, a superset of the
candidates Algorithm 1's sign test would retain, so the selected point
is identical while the work per iteration stays O(n) with small
constants.  The gaps themselves — ends, ranks, exact suffix key sums,
centered ends — are the stats' open-gap table
(:meth:`~repro.core.segment_stats.SegmentStats.open_gaps`), which each
commit updates where it split one gap; a step derives nothing from the
point array, and a full run over n keys does no per-gap Python work.
What is left per step is arithmetic over the table: about a dozen
numpy passes over the ``(2, G)`` endpoint block and a dozen over the
``G`` per-gap constants, then a few small ones over the interior block.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..obs.metrics import get_registry
from .candidates import all_free_values
from .exceptions import SmoothingBudgetError
from .linear_model import LinearModel
from .loss import fit_and_loss
from .segment_stats import SegmentStats, sum_of_rank_squares, sum_of_ranks, validate_keys

__all__ = [
    "GreedySummary",
    "SmoothingResult",
    "greedy_insert",
    "smooth_keys",
    "smooth_keys_exhaustive",
    "smooth_keys_fixed_model",
    "resolve_budget",
]

#: Safety valve for the exhaustive solver: refuse searches beyond this
#: many subsets instead of hanging for hours.
MAX_EXHAUSTIVE_SUBSETS = 2_000_000


def resolve_budget(n: int, alpha: float | None, budget: int | None) -> int:
    """Turn ``(alpha, budget)`` into a concrete number of virtual points.

    Exactly one of *alpha* / *budget* must be given.  ``alpha`` follows
    Section 3: it must lie in ``(0, 1)`` so the space overhead stays a
    fraction of ``n``.  An explicit *budget* may be any positive count.
    """
    if (alpha is None) == (budget is None):
        raise SmoothingBudgetError("specify exactly one of alpha or budget")
    if budget is not None:
        if budget < 1:
            raise SmoothingBudgetError(f"budget must be >= 1, got {budget}")
        return int(budget)
    if not 0.0 < alpha < 1.0:
        raise SmoothingBudgetError(f"alpha must be in (0, 1), got {alpha}")
    return max(1, int(alpha * n))


class GreedySummary:
    """What every smoothing result says about its run, from its
    ``virtual_points`` / ``original_loss`` / ``final_loss`` fields."""

    @property
    def n_virtual(self) -> int:
        return len(self.virtual_points)

    @property
    def loss_improvement_pct(self) -> float:
        """Percentage reduction of the loss versus the original keys."""
        if self.original_loss == 0.0:
            return 0.0
        return 100.0 * (self.original_loss - self.final_loss) / self.original_loss


@dataclass
class SmoothingResult(GreedySummary):
    """Outcome of one smoothing run.

    Attributes:
        original_keys: the input key list (sorted, unique).
        virtual_points: inserted values, in insertion order.
        points: final combined sorted point set (keys + virtual points).
        original_loss: refitted SSE over the original keys alone.
        final_loss: refitted SSE over the combined point set
            (``L_{f'}(K ∪ V)``, the quantity in Fig. 2b / Table 2).
        model: the final refitted indexing function.
        budget: the allowed number of virtual points ``λ``.
        loss_trace: loss after each committed insertion (index 0 is the
            original loss).
        stopped_early: True when the greedy loop terminated because no
            candidate reduced the loss before the budget ran out.
        elapsed_seconds: wall time of the smoothing run.
    """

    original_keys: np.ndarray
    virtual_points: list[int]
    points: np.ndarray
    original_loss: float
    final_loss: float
    model: LinearModel
    budget: int
    loss_trace: list[float] = field(default_factory=list)
    stopped_early: bool = False
    elapsed_seconds: float = 0.0

    def key_ranks(self) -> np.ndarray:
        """Ranks of the *original* keys within the combined point set."""
        return np.searchsorted(self.points, self.original_keys, side="left")

    def loss_over_original_keys(self) -> float:
        """``L_{f'}(K)`` — the final model's SSE on real keys only.

        This is the optimisation target of Definition 1 (the virtual
        points themselves carry no queries); Fig. 2b reports both this
        (2.04) and the combined loss (2.29).
        """
        ranks = self.key_ranks().astype(np.float64)
        err = self.model.predict_array(self.original_keys) - ranks
        return float(np.dot(err, err))


def greedy_insert(
    best: Callable[[], tuple[int, float] | None],
    commit: Callable[[int], object],
    budget: int,
    loss: float,
    accept: Callable[[float, float], bool],
) -> tuple[list[int], list[float], bool]:
    """The greedy loop of Algorithm 1, written once.

    Up to *budget* times: ask *best* for the state's best ``(value,
    loss)``, stop when there is none or ``accept(loss, loss so far)``
    turns it down (Lines 27-28), otherwise *commit* the value so the
    next round scores against the point set that holds it.  *loss* is
    the loss before any insertion.  Returns the inserted values in
    insertion order, the loss trace (index 0 is *loss*) and whether the
    loop stopped before the budget ran out.
    """
    trace = [loss]
    inserted: list[int] = []
    while len(inserted) < budget:
        found = best()
        if found is None or not accept(found[1], trace[-1]):
            return inserted, trace, True
        value, loss = found
        commit(value)
        inserted.append(value)
        trace.append(loss)
    return inserted, trace, False


def _block_losses(t, c0, c1, v0, v1, v2, syyc) -> np.ndarray:
    """Refitted losses of a ``(2, B)`` block of centered candidates
    ``t`` whose column ``j`` shares the gap constants ``c0[j], c1[j]``:
    ``SyyC - cov(t)² / var(t)`` where ``var(t) > 0``, floored at 0."""
    cov = np.multiply(c1, t)
    cov += c0
    var = np.multiply(t, v1)
    var += v0
    quad = np.multiply(t, v2)
    quad *= t
    var += quad
    cov *= cov
    positive = var > 0.0
    if positive.all():
        cov /= var
    else:
        cov = np.divide(cov, var, out=np.zeros_like(var), where=positive)
    np.subtract(syyc, cov, out=cov)
    return np.maximum(cov, 0.0, out=cov)


#: The numpy twin of each builtin a scan may pick with; both return
#: the first of equally good candidates.
_ARG = {min: np.argmin, max: np.argmax}
_loss = operator.itemgetter(1)


def _score_gaps(
    stats: SegmentStats,
    interior: Callable[..., np.ndarray],
    pick: Callable,
) -> tuple[int, float, int, int] | None:
    """The first best candidate over every open gap.

    Reads the stats' open-gap table (:meth:`~repro.core.segment_stats.
    SegmentStats.open_gaps`) and scores both endpoints of every gap plus
    the floor and ceiling of one interior point per gap:
    ``interior(c0, c1, v0, v1, v2)`` gives it as a centered value ``t``,
    and only a point strictly inside its gap is kept (which rejects a
    NaN or infinite one too).

    The per-gap constants ``c0, c1`` (and the scalar ``v*`` terms) of
    Eqs. 10-16 come from the table's suffix sums and ranks; every
    candidate then costs a handful of float ops on its centered value —
    the closed forms
    :meth:`~repro.core.segment_stats.SegmentStats.evaluate_many`
    applies.  The endpoints are one ``(2, G)`` block, lows then highs;
    the interior floors and ceilings a ``(2, I)`` block over the few
    gaps that have one.  *pick* (``min`` or ``max``) chooses in each
    block and then between the two, keeping the first of equals: the
    same candidate one first-occurrence argmin (argmax) over the
    concatenation lows, highs, floors, ceilings would choose.  Returns
    ``(value, loss, G, 2G + 2I)``, or ``None`` when no free value exists.
    """
    n_gaps = stats.n_gaps
    if n_gaps == 0:
        return None
    gaps = stats.open_gaps()
    big_n = stats.n + 1
    sy = sum_of_ranks(big_n)
    syy = sum_of_rank_squares(big_n)
    ybar = sy / big_n
    sk, skk, sky = stats.centered_sums()
    c0 = np.add(gaps.suffix, sky)
    c0 -= sk * ybar
    c1 = np.subtract(gaps.ranks, ybar)
    v0 = skk - sk * sk / big_n
    v1 = -2.0 * sk / big_n
    v2 = 1.0 - 1.0 / big_n
    syyc = syy - sy * sy / big_n

    arg = _ARG[pick]
    losses = _block_losses(gaps.t, c0, c1, v0, v1, v2, syyc)
    row, col = divmod(int(arg(losses)), n_gaps)
    best = int(gaps.ends[row, col]), float(losses[row, col])

    with np.errstate(divide="ignore", invalid="ignore"):
        star = interior(c0, c1, v0, v1, v2)
    star += stats.reference
    idx = np.flatnonzero((star > gaps.bounds[0]) & (star < gaps.bounds[1]))
    if idx.size:
        low, high = gaps.ends[:, idx]
        # The floor clamped into its gap, then the next value (> low).
        inner = np.empty((2, idx.size), dtype=np.int64)
        floor = np.floor(star[idx]).astype(np.int64)
        np.minimum(np.maximum(floor, low, out=floor), high, out=inner[0])
        np.minimum(np.add(inner[0], 1, out=inner[1]), high, out=inner[1])
        inner_losses = _block_losses(stats.centered(inner), c0[idx], c1[idx], v0, v1, v2, syyc)
        row, col = divmod(int(arg(inner_losses)), idx.size)
        best = pick(best, (int(inner[row, col]), float(inner_losses[row, col])), key=_loss)
    return best[0], best[1], n_gaps, 2 * (n_gaps + int(idx.size))


def _stationary_point(c0, c1, v0, v1, v2) -> np.ndarray:
    """Where the bracketed factor of a gap's loss derivative vanishes,
    ``(c0·v1 - 2·c1·v0) / (c1·v1 - 2·c0·v2)`` (±inf or NaN where it
    does not).  Doubling is exact, so ``c1·(2·v0)`` rounds like
    ``(2·c1)·v0`` and saves an array pass."""
    star = c0 * v1
    star -= c1 * (2.0 * v0)
    denom = c1 * v1
    denom -= c0 * (2.0 * v2)
    star /= denom
    return star


def _best_candidate(stats: SegmentStats, tally: list[int] | None = None) -> tuple[int, float] | None:
    """Vectorised global best ``(value, loss)`` over every gap.

    Endpoints plus the interior stationary point are a superset of
    Algorithm 1's filtered candidates; the argmin therefore matches the
    scalar implementation exactly.  ``None`` when no free value exists.
    *tally*, when given, accumulates the gaps and candidates scored.
    """
    scored = _score_gaps(stats, _stationary_point, min)
    if scored is None:
        return None
    value, loss, n_gaps, n_evals = scored
    if tally is not None:
        tally[0] += n_gaps
        tally[1] += n_evals
    return value, loss


def smooth_keys(
    keys: np.ndarray | list,
    alpha: float | None = None,
    budget: int | None = None,
    min_gain: float = 0.0,
) -> SmoothingResult:
    """Algorithm 1: greedy CDF smoothing with up to ``λ`` virtual points.

    Args:
        keys: sorted, duplicate-free integer keys.
        alpha: smoothing threshold; ``λ = α·n`` (Section 3).
        budget: explicit ``λ``; mutually exclusive with *alpha*.
        min_gain: minimum absolute loss reduction a candidate must
            achieve to be committed (0 reproduces the paper's
            "strictly smaller" test in Line 27).

    Returns a :class:`SmoothingResult`; ``result.points`` is the
    smoothed point set whose CDF the indexing function now fits better.
    """
    original = validate_keys(keys)
    lam = resolve_budget(original.size, alpha, budget)
    start = time.perf_counter()
    stats = SegmentStats(original)
    tally = [0, 0]
    virtual, trace, stopped_early = greedy_insert(
        lambda: _best_candidate(stats, tally),
        stats.commit,
        lam,
        stats.base_loss(),
        lambda loss, previous: loss < previous - min_gain,
    )
    elapsed = time.perf_counter() - start
    reg = get_registry()
    if reg.enabled:
        reg.counter("smooth_runs_total").inc()
        reg.counter("smooth_virtual_points_total").inc(len(virtual))
        reg.histogram("smooth_seconds").observe(elapsed)
        if tally[0]:
            reg.counter("smooth_gap_segments_total").inc(tally[0])
            reg.counter("smooth_candidate_evals_total").inc(tally[1])
    return SmoothingResult(
        original_keys=original,
        virtual_points=virtual,
        points=stats.points.copy(),
        original_loss=trace[0],
        final_loss=trace[-1],
        model=stats.base_model(),
        budget=lam,
        loss_trace=trace,
        stopped_early=stopped_early,
        elapsed_seconds=elapsed,
    )


def smooth_keys_exhaustive(
    keys: np.ndarray | list,
    alpha: float | None = None,
    budget: int | None = None,
) -> SmoothingResult:
    """Exact smoothing by exhausting every size-≤λ candidate subset.

    This is the "Exhaustive" column of Table 2.  Complexity is
    ``O(C(p, λ) · n)`` over ``p`` free values; the function refuses
    instances beyond :data:`MAX_EXHAUSTIVE_SUBSETS` subsets.
    """
    original = validate_keys(keys)
    lam = resolve_budget(original.size, alpha, budget)
    stats = SegmentStats(original)
    candidates = all_free_values(stats)
    p = int(candidates.size)
    take = min(lam, p)
    total_subsets = sum(_n_choose_k(p, size) for size in range(take + 1))
    if total_subsets > MAX_EXHAUSTIVE_SUBSETS:
        raise SmoothingBudgetError(
            f"exhaustive search over {total_subsets} subsets exceeds the "
            f"{MAX_EXHAUSTIVE_SUBSETS} limit; use smooth_keys() instead"
        )
    start = time.perf_counter()
    base_model, base_loss = fit_and_loss(original)
    best_loss = base_loss
    best_subset: tuple[int, ...] = ()
    best_model = base_model
    for size in range(1, take + 1):
        for subset in itertools.combinations(candidates.tolist(), size):
            merged = np.sort(np.concatenate([original, np.asarray(subset, dtype=np.int64)]))
            model, loss = fit_and_loss(merged)
            if loss < best_loss:
                best_loss = loss
                best_subset = subset
                best_model = model
    elapsed = time.perf_counter() - start
    merged = np.sort(
        np.concatenate([original, np.asarray(best_subset, dtype=np.int64)])
    ) if best_subset else original.copy()
    return SmoothingResult(
        original_keys=original,
        virtual_points=list(best_subset),
        points=merged,
        original_loss=base_loss,
        final_loss=best_loss,
        model=best_model,
        budget=lam,
        loss_trace=[base_loss, best_loss],
        stopped_early=False,
        elapsed_seconds=elapsed,
    )


def smooth_keys_fixed_model(
    keys: np.ndarray | list,
    alpha: float | None = None,
    budget: int | None = None,
) -> SmoothingResult:
    """Ablation: smooth toward the *original* model without refitting.

    Eq. 4's refitting is the paper's key deviation from the naive
    "spread ranks to match f" scheme; this variant omits it so the
    ablation bench can quantify the difference.  Each iteration commits
    the free value whose insertion most reduces the SSE measured
    against the fixed original function.
    """
    original = validate_keys(keys)
    lam = resolve_budget(original.size, alpha, budget)
    start = time.perf_counter()
    model, original_loss = fit_and_loss(original)
    points = original.astype(np.int64)
    virtual: list[int] = []
    previous_loss = original_loss
    stopped_early = False
    while len(virtual) < lam:
        # With f fixed, inserting v at rank r keeps the errors below r,
        # adds f(v) - r and lowers every error from r on by one, so each
        # candidate's SSE is two prefix sums and one term.
        err = model.predict_array(points) - np.arange(points.size, dtype=np.float64)
        if virtual:
            previous_loss = float(np.dot(err, err))
        below = np.concatenate(([0.0], np.cumsum(err * err)))
        above = np.concatenate((np.cumsum(((err - 1.0) ** 2)[::-1])[::-1], [0.0]))
        lows = points[:-1] + 1
        highs = points[1:] - 1
        gaps = np.nonzero(highs >= lows)[0]
        ranks = gaps + 1
        lo, hi = lows[gaps], highs[gaps]
        # The loss within a gap is quadratic in the value with its minimum
        # at f^{-1}(rank) = pivot + (rank - intercept) / slope; only the
        # nearest admissible integers can win.
        if model.slope != 0.0:
            ideal = model.pivot + (ranks - model.intercept) / model.slope
        else:
            ideal = lo.astype(np.float64)
        candidates = np.stack(
            [np.clip(np.floor(ideal), lo, hi), np.clip(np.ceil(ideal), lo, hi), lo, hi], axis=1
        ).astype(np.int64)
        inserted = model.predict_array(candidates.ravel()).reshape(candidates.shape) - ranks[:, None]
        losses = (below[ranks] + above[ranks])[:, None] + inserted * inserted
        best = int(np.argmin(losses)) if losses.size else -1
        if best < 0 or not losses.flat[best] < previous_loss:
            stopped_early = True
            break
        best_value = int(candidates.flat[best])
        points = np.insert(points, int(np.searchsorted(points, best_value)), best_value)
        virtual.append(best_value)
    if virtual:
        err = model.predict_array(points) - np.arange(points.size, dtype=np.float64)
        previous_loss = float(np.dot(err, err))
    elapsed = time.perf_counter() - start
    return SmoothingResult(
        original_keys=original,
        virtual_points=virtual,
        points=points,
        original_loss=original_loss,
        final_loss=previous_loss,
        model=model,
        budget=lam,
        loss_trace=[original_loss, previous_loss],
        stopped_early=stopped_early,
        elapsed_seconds=elapsed,
    )


def _n_choose_k(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(min(k, n - k)):
        out = out * (n - i) // (i + 1)
    return out
