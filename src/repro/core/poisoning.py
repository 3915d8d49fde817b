"""Loss-maximising point insertion (poisoning attacks, Section 2.3).

CSV's smoothing is "data poisoning run in reverse": Kornaropoulos et
al. insert points that *maximise* the SSE of a learned index's models
to degrade it.  Reusing the incremental machinery from
:mod:`repro.core.segment_stats` we implement the greedy attack, both
as a reproduction of the motivating related work and as a sanity
ablation — smoothing and poisoning should move the loss in opposite
directions from the same starting set.

Within one gap, the refitted loss is ``SyyC - cov(t)²/var(t)``; it is
*maximised* where ``cov(t) = 0`` (the model explains nothing), so the
attack's interior candidate is the root of the covariance rather than
the stationary point of the bracketed factor used for smoothing.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .exceptions import SmoothingBudgetError
from .segment_stats import SegmentStats, validate_keys
from .smoothing import _score_gaps, greedy_insert, resolve_budget

__all__ = ["PoisoningResult", "poison_keys"]


@dataclass
class PoisoningResult:
    """Outcome of a greedy poisoning run."""

    original_keys: np.ndarray
    poison_points: list[int] = field(default_factory=list)
    points: np.ndarray | None = None
    original_loss: float = 0.0
    final_loss: float = 0.0
    loss_trace: list[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def loss_increase_pct(self) -> float:
        if self.original_loss == 0.0:
            return float("inf") if self.final_loss > 0 else 0.0
        return 100.0 * (self.final_loss - self.original_loss) / self.original_loss


def _covariance_root(c0, c1, v0, v1, v2) -> np.ndarray:
    """Where a gap's ``cov(t) = c0 + c1·t`` vanishes (±inf or NaN where
    it does not)."""
    return -c0 / c1


def _worst_candidate(stats: SegmentStats) -> tuple[int, float] | None:
    """Global loss-maximising ``(value, loss)`` over every gap: the
    smoother's candidate scan with the covariance root as each gap's
    interior point and the argmin turned into an argmax."""
    scored = _score_gaps(stats, _covariance_root, max)
    return None if scored is None else scored[:2]


def poison_keys(
    keys: np.ndarray | list,
    alpha: float | None = None,
    budget: int | None = None,
) -> PoisoningResult:
    """Greedy poisoning: insert points that maximise the refitted SSE.

    :func:`repro.core.smoothing.smooth_keys`'s loop with the accept
    test reversed: it stops when no free value exists or none hurts the
    fit further (rare, tiny gaps).
    """
    original = validate_keys(keys)
    lam = resolve_budget(original.size, alpha, budget)
    if original.size < 2:
        raise SmoothingBudgetError("poisoning needs at least two keys")
    start = time.perf_counter()
    stats = SegmentStats(original)
    poison, trace, __ = greedy_insert(
        lambda: _worst_candidate(stats), stats.commit, lam, stats.base_loss(), operator.gt
    )
    return PoisoningResult(
        original_keys=original,
        poison_points=poison,
        points=stats.points.copy(),
        original_loss=trace[0],
        final_loss=trace[-1],
        loss_trace=trace,
        elapsed_seconds=time.perf_counter() - start,
    )
