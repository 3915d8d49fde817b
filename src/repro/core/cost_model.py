"""Cost model for CSV reconstruction decisions (Section 5.1, Eq. 22).

A CSV rebuild trades *traversal time* (fewer levels) against *leaf-node
search time* (bigger nodes → longer in-node searches, for indexes that
search).  Eq. 22 prices a node's expected query time as::

    cost = search_constant · expected_number_of_searches
         + traversal_constant · index_level

Reconstruction goes ahead only when ``cost_after - cost_before`` falls
below a threshold ``c`` (the paper recommends ``c < 0`` so that only
genuine improvements trigger a rebuild).

To stay hardware independent, the constants can be *calibrated* from a
sample of timed queries (the paper measures per-level traversal time
and per-step search time the same way); deterministic defaults in
"simulated nanoseconds" are provided so experiments are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .exceptions import CalibrationError

__all__ = [
    "CostConstants",
    "expected_search_steps",
    "node_cost",
    "rebuild_cost_delta",
    "calibrate_from_samples",
]


@dataclass(frozen=True)
class CostConstants:
    """Latency constants in (simulated) nanoseconds.

    Defaults approximate an in-memory learned index on commodity
    hardware: one pointer chase + model evaluation per level, one
    cache-resident comparison per search step, and a fixed overhead.
    Absolute values do not matter for the paper's relative metrics;
    only their ratio shapes the trade-off.
    """

    traversal_ns: float = 40.0
    search_ns: float = 12.0
    base_ns: float = 20.0

    def query_ns(self, levels: int, search_steps: int) -> float:
        """Simulated latency of one query given its traversal stats."""
        return self.base_ns + self.traversal_ns * levels + self.search_ns * search_steps

    def query_ns_batch(self, levels, search_steps):
        """Vectorised :meth:`query_ns` over parallel stat arrays.

        Accepts numpy arrays (or anything broadcastable) and returns a
        float64 array — the kernel behind
        :meth:`repro.indexes.base.BatchQueryStats.simulated_ns`.
        """
        import numpy as np

        return (
            self.base_ns
            + self.traversal_ns * np.asarray(levels, dtype=np.float64)
            + self.search_ns * np.asarray(search_steps, dtype=np.float64)
        )


def expected_search_steps(loss: float, n_keys: int) -> float:
    """Expected exponential-search iterations from a node's SSE.

    ALEX estimates in-node search cost from the log2 of the model
    error; with SSE ``L`` over ``n`` keys the RMS prediction error is
    ``sqrt(L / n)`` and an exponential search centred on the prediction
    inspects about ``log2(err + 1) + 1`` probe pairs.
    """
    if n_keys <= 0:
        return 0.0
    rms_error = math.sqrt(max(loss, 0.0) / n_keys)
    return math.log2(rms_error + 1.0) + 1.0


def node_cost(
    expected_searches: float,
    index_level: int,
    constants: CostConstants | None = None,
) -> float:
    """Eq. 22: the modelled query cost of a node at *index_level*."""
    consts = constants or CostConstants()
    return consts.search_ns * expected_searches + consts.traversal_ns * index_level


def rebuild_cost_delta(
    loss_before: float,
    n_before: int,
    avg_level_before: float,
    loss_after: float,
    n_after: int,
    level_after: int,
    constants: CostConstants | None = None,
) -> float:
    """Cost change of merging a subtree into one node (ALEX condition).

    ``before`` describes the subtree as currently laid out (its average
    key level and aggregate model loss), ``after`` the single merged
    node CSV would build.  Negative means the rebuild is expected to
    make queries faster; CSV rebuilds when the delta is below the
    user's threshold ``c``.
    """
    consts = constants or CostConstants()
    before = node_cost(expected_search_steps(loss_before, n_before), 1, consts)
    before += consts.traversal_ns * max(avg_level_before - 1.0, 0.0)
    after = node_cost(expected_search_steps(loss_after, n_after), 1, consts)
    # The merged node sits at `level_after`; extra levels are gone.
    return after - before


def calibrate_from_samples(
    timed_queries: Sequence[tuple[int, int, float]],
) -> CostConstants:
    """Least-squares fit of the cost constants from measured queries.

    *timed_queries* contains ``(levels, search_steps, elapsed_ns)``
    triples, e.g. from timing a sample of lookups on the target
    machine.  Solves ``elapsed ≈ base + traversal·levels +
    search·steps`` and clamps the constants to non-negative values.
    """
    if len(timed_queries) < 3:
        raise CalibrationError("need at least 3 timed queries to calibrate")
    import numpy as np

    rows = np.asarray(timed_queries, dtype=np.float64)
    design = np.column_stack([np.ones(rows.shape[0]), rows[:, 0], rows[:, 1]])
    coeffs, *_ = np.linalg.lstsq(design, rows[:, 2], rcond=None)
    base, traversal, search = (max(float(c), 0.0) for c in coeffs)
    if traversal == 0.0 and search == 0.0:
        raise CalibrationError("calibration produced degenerate constants")
    return CostConstants(traversal_ns=traversal, search_ns=search, base_ns=base)
