"""CSV — CDF Smoothing via Virtual points for hierarchies (Algorithm 2).

CSV walks a *constructed* hierarchical learned index depth-first from
the root's children.  For every node that roots a subtree it:

1. collects the keys stored in the node and its descendants,
2. smooths their CDF with Algorithm 1
   (:func:`repro.core.smoothing.smooth_keys`),
3. evaluates a cost condition (loss reduction for LIPP/SALI, the
   Eq. 22 cost model for ALEX), and
4. if the condition passes, rebuilds the subtree as a single node whose
   slot layout follows the smoothed point set — the virtual points
   materialise as gaps that later absorb insertions.

The walk is parent-first where the adapter declares that a rebuild
depends on the key set alone, children-first otherwise.  Parent-first,
a rebuilt subtree is not descended into: smoothing its descendants
first could not change the merged node, so the paper's "start at level
2 (big subtrees)" for LIPP/SALI falls out of the order.  Children-first
is the paper's bottom-up pass, for an accept test that reads the
structure beneath the handle (ALEX); there a rebuild replaces nodes
rebuilt beneath it, and their records are marked ``superseded`` so
the report counts what the final tree holds.

A rebuild reads nothing of Algorithm 1's output but the subtree's
keys, the smoothed point count ``m`` and the refitted model, so a
run's outcome is a handful of numbers per surviving rebuild
(:meth:`CsvReport.decisions`).  A served family's ``build`` takes such
a record (:class:`RecordedRebuilds`) and lays each recorded subtree out
by its row the first time, so a durable store reopens a smoothed shard
in one pass without running Algorithm 1.

The engine is index-agnostic: concrete indexes plug in through the
:class:`CsvAdapter` protocol implemented in
:mod:`repro.indexes.adapters`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Protocol, runtime_checkable

import numpy as np

from .exceptions import SmoothingBudgetError, StoreCorruptionError
from .linear_model import LinearModel
from .smoothing import SmoothingResult, smooth_keys

__all__ = [
    "CsvAdapter",
    "CsvConfig",
    "CsvNodeRecord",
    "CsvReport",
    "DECISION_COLUMNS",
    "RecordedRebuilds",
    "apply_csv",
    "check_decisions",
]

#: Columns of :meth:`CsvReport.decisions`, one row per surviving
#: rebuild: the subtree's smallest key and its level (the root is 1),
#: its key count, the smoothed point count, the refitted model's
#: slope and intercept as float64 bit patterns, and its pivot.
DECISION_COLUMNS = ("first_key", "level", "n_keys", "m", "slope", "intercept", "pivot")


@runtime_checkable
class CsvAdapter(Protocol):
    """What an index must expose for Algorithm 2 to optimise it.

    A *handle* is an adapter-chosen opaque reference to one node that
    roots a subtree (never the index root itself).  A handle stays
    valid until it is rebuilt or an ancestor of it is; rebuilds happen
    only through :meth:`rebuild`.
    """

    #: True when :meth:`cost_delta` and the node :meth:`rebuild`
    #: installs are functions of the handle's key set alone: the walk
    #: is then parent-first and skips the descendants of a rebuilt
    #: handle, otherwise children-first (see the module docstring).
    rebuild_depends_on_keys_alone: bool

    def child_handles(self, handle: Any | None) -> Iterable[Any]:
        """Subtree-rooting children of *handle* (of the index root for
        ``None``)."""
        ...

    def collect(self, handle: Any) -> tuple:
        """One walk of the subtree: its sorted keys first, then whatever
        else :meth:`rebuild` wants from that walk (it gets the tuple back)."""
        ...

    def cost_delta(self, handle: Any, smoothing: SmoothingResult) -> float:
        """Modelled cost change of rebuilding this subtree (Section 5.1).

        Negative = improvement.  LIPP/SALI adapters return the loss
        change; the ALEX adapter prices Eq. 22.
        """
        ...

    def rebuild(
        self, handle: Any, smoothing: SmoothingResult, collected: tuple
    ) -> tuple[int, int]:
        """Replace the subtree with a merged node (through
        :meth:`install`); return how many of its keys now sit at a
        shallower level (promoted) and how many at a deeper one
        (demoted)."""
        ...

    def install(
        self, handle: Any, keys: np.ndarray, values: np.ndarray, m: int, model: LinearModel
    ) -> Any:
        """Build the merged node of *keys* laid out over *m* smoothed
        points by *model* (``m - keys.size`` of them virtual), and put
        it where *handle* is.  What it returns is :meth:`rebuild`'s to
        use."""
        ...


@dataclass(frozen=True)
class CsvConfig:
    """Tuning knobs of Algorithm 2.

    Attributes:
        alpha: smoothing threshold passed to Algorithm 1 (default 0.1,
            the paper's default).
        cost_threshold: rebuild when ``cost_delta < cost_threshold``;
            the paper recommends values below 0 for ALEX-like indexes.
        min_subtree_keys: skip trivial subtrees below this size.
    """

    alpha: float = 0.1
    cost_threshold: float = 0.0
    min_subtree_keys: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise SmoothingBudgetError(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class CsvNodeRecord:
    """Audit record for one subtree CSV examined."""

    level: int
    n_keys: int
    #: The subtree's smallest key: with ``level``, where it sits.
    first_key: int
    #: Size of the smoothed point set (keys + virtual points).
    m: int
    #: The refitted indexing function a rebuild lays the node out by.
    model: LinearModel
    loss_before: float
    loss_after: float
    n_virtual: int
    cost_delta: float
    rebuilt: bool
    promoted_keys: int
    #: Keys the merged node's own conflicts pushed a level *down*
    #: (``level_after > level_before``); the paper counts only the
    #: promoted ones.
    demoted_keys: int
    #: Rebuilt, then replaced by the rebuild of an ancestor
    #: (children-first walks only); the report's totals skip it.
    superseded: bool = False


@dataclass
class CsvReport:
    """Outcome of one :func:`apply_csv` run."""

    config: CsvConfig
    records: list[CsvNodeRecord] = field(default_factory=list)
    preprocessing_seconds: float = 0.0

    @property
    def nodes_examined(self) -> int:
        return len(self.records)

    def _surviving(self) -> list[CsvNodeRecord]:
        """Records of the rebuilt nodes the final tree still holds."""
        return [r for r in self.records if r.rebuilt and not r.superseded]

    @property
    def nodes_rebuilt(self) -> int:
        return len(self._surviving())

    @property
    def keys_promoted(self) -> int:
        return sum(r.promoted_keys for r in self._surviving())

    @property
    def keys_demoted(self) -> int:
        return sum(r.demoted_keys for r in self._surviving())

    @property
    def virtual_points_inserted(self) -> int:
        return sum(r.n_virtual for r in self._surviving())

    def decisions(self) -> np.ndarray:
        """The surviving rebuilds as one ``(n, 7)`` int64 array, in the
        order they were made (columns: :data:`DECISION_COLUMNS`) —
        everything a build needs to redo them (:class:`RecordedRebuilds`)."""
        rows = np.zeros((self.nodes_rebuilt, len(DECISION_COLUMNS)), dtype=np.int64)
        for row, r in zip(rows, self._surviving()):
            row[:4] = (r.first_key, r.level, r.n_keys, r.m)
            row[4:6] = np.asarray([r.model.slope, r.model.intercept], dtype=np.float64).view(np.int64)
            row[6] = r.model.pivot
        return rows


def apply_csv(adapter: CsvAdapter, config: CsvConfig | None = None) -> CsvReport:
    """Algorithm 2: optimise a built index by depth-first CDF smoothing.

    Starts at the root's children (CSV stops at the second level from
    the top): depth-first, parent-first where the adapter declares that
    a rebuild depends on the key set alone — a rebuilt handle's
    descendants are then never visited — children-first otherwise.

    Returns a :class:`CsvReport` with one record per node examined.
    """
    cfg = config or CsvConfig()
    report = CsvReport(config=cfg)
    start_time = time.perf_counter()
    parent_first = adapter.rebuild_depends_on_keys_alone
    # (handle, level, first record beneath it) — children-first handles
    # are pushed back once (None: not yet), to be examined after
    # everything beneath them, whose records then start at that mark.
    stack = [(handle, 2, None) for handle in adapter.child_handles(None)]
    while stack:
        handle, level, beneath = stack.pop()
        if beneath is None and not parent_first:
            stack.append((handle, level, len(report.records)))
        elif _examine(adapter, cfg, handle, level, report):
            if beneath is not None:
                # The rebuild replaced every node rebuilt beneath it.
                report.records[beneath:-1] = [
                    replace(r, superseded=r.rebuilt) for r in report.records[beneath:-1]
                ]
            continue
        elif not parent_first:
            continue
        stack.extend((child, level + 1, None) for child in adapter.child_handles(handle))
    report.preprocessing_seconds = time.perf_counter() - start_time
    return report


def _examine(
    adapter: CsvAdapter, cfg: CsvConfig, handle: Any, level: int, report: CsvReport
) -> bool:
    """Smooth one subtree, rebuild it if that pays; True when rebuilt."""
    collected = adapter.collect(handle)
    keys = collected[0]
    if keys.size < cfg.min_subtree_keys:
        return False
    smoothing = smooth_keys(keys, alpha=cfg.alpha)
    delta = adapter.cost_delta(handle, smoothing)
    rebuilt = delta < cfg.cost_threshold
    promoted, demoted = adapter.rebuild(handle, smoothing, collected) if rebuilt else (0, 0)
    report.records.append(
        CsvNodeRecord(
            level=level,
            n_keys=int(keys.size),
            first_key=int(keys[0]),
            m=int(smoothing.points.size),
            model=smoothing.model,
            loss_before=smoothing.original_loss,
            loss_after=smoothing.final_loss,
            n_virtual=smoothing.n_virtual,
            cost_delta=float(delta),
            rebuilt=rebuilt,
            promoted_keys=int(promoted),
            demoted_keys=int(demoted),
        )
    )
    return rebuilt


def _bad_record(source: str, row: int | None, column: str | None, problem: str):
    where = f"{source}: csv" + ("" if row is None else f" row {row}")
    if column is not None:
        where += f" column '{column}'"
    return StoreCorruptionError(f"{where}: {problem}")


def check_decisions(
    decisions: np.ndarray, keys: np.ndarray, source: str = "decisions"
) -> None:
    """Check a decision record against the sorted key set it was made
    for, without building anything.

    Raises :class:`StoreCorruptionError` naming *source*, the row and
    the column for a wrong shape or dtype, a level above the root's
    children, a ``first_key`` that is not stored, a key slice that
    runs out of *keys* or lies inside another row's (a rebuild's
    descendants are never rebuilt too), an ``m`` outside
    ``(n_keys, 2 * n_keys]``, or a model that is not finite.
    """
    if not isinstance(decisions, np.ndarray) or decisions.dtype != np.int64:
        dtype = getattr(decisions, "dtype", type(decisions).__name__)
        raise _bad_record(source, None, None, f"dtype {dtype}, expected int64")
    if decisions.ndim != 2 or decisions.shape[1] != len(DECISION_COLUMNS):
        raise _bad_record(
            source, None, None,
            f"shape {decisions.shape}, expected (n, {len(DECISION_COLUMNS)})",
        )
    first, level, n_keys, m = decisions[:, :4].T
    starts = np.searchsorted(keys, first)
    stored = starts < keys.size
    stored[stored] = keys[starts[stored]] == first[stored]
    model = decisions[:, 4:6].view(np.float64)
    # By start, longest first: a slice ending within an earlier one's reach is inside it.
    ends = starts + n_keys
    order = np.lexsort((-ends, starts))
    nested = np.zeros(first.size, dtype=bool)
    nested[order[1:]] = ends[order[1:]] <= np.maximum.accumulate(ends[order])[:-1]
    problems = (
        ("level", level < 2, "not below the root"),
        ("first_key", ~stored, "not a stored key"),
        ("n_keys", (n_keys < 1) | (n_keys > keys.size - starts), "key slice runs out of the stored keys"),
        ("first_key", nested, "key slice inside another row's"),
        # α < 1 caps the virtual points at the key count.
        ("m", (m <= n_keys) | (m > 2 * n_keys), "not in (n_keys, 2 * n_keys]"),
        ("slope", ~np.isfinite(model[:, 0]), "not finite"),
        ("intercept", ~np.isfinite(model[:, 1]), "not finite"),
    )
    for column, bad, problem in problems:
        if bad.any():
            row = int(np.argmax(bad))
            value = decisions[row, DECISION_COLUMNS.index(column)]
            if column in ("slope", "intercept"):
                value = value.view(np.float64)
            raise _bad_record(source, row, column, f"{problem} ({value})")


class RecordedRebuilds:
    """A decision record (:meth:`CsvReport.decisions`), checked against
    the sorted *keys* it was made for, as a family's ``build`` consumes
    it: the build asks :meth:`take` for the rows naming the nodes it is
    about to lay out (by level and first key; the node's key count must
    be the row's ``n_keys``), then :meth:`finish` refuses the rows no
    node took.  Faults raise :class:`StoreCorruptionError` naming
    *source*, the row and the column.
    """

    def __init__(self, decisions: np.ndarray, keys: np.ndarray, source: str = "decisions"):
        check_decisions(decisions, keys, source)
        self.source = source
        self._decisions = decisions
        #: level -> first key -> row, for the rows not yet taken.
        self._open: dict[int, dict[int, int]] = {}
        for row, (first, level) in enumerate(decisions[:, :2].tolist()):
            self._open.setdefault(level, {})[first] = row

    def take(self, level: int, keys: np.ndarray, counts) -> dict[int, tuple[int, LinearModel]]:
        """The rows recorded at *level* for its nodes whose keys are the
        segments of *keys*, ``counts[i]`` keys each: segment ``i`` ->
        the row's ``(m, model)``."""
        open_rows = self._open.get(level)
        if not open_rows:
            return {}
        taken = {}
        for i, first in enumerate(keys[np.cumsum(counts) - counts].tolist()):
            row = open_rows.pop(first, None)
            if row is None:
                continue
            __, __, n_keys, m, __, __, pivot = self._decisions[row].tolist()
            if n_keys != counts[i]:
                raise _bad_record(
                    self.source, row, "n_keys", f"the subtree at level {level} does not hold {n_keys} keys"
                )
            slope, intercept = self._decisions[row, 4:6].view(np.float64).tolist()
            taken[i] = m, LinearModel(slope, intercept, pivot)
        return taken

    def finish(self) -> None:
        """Refuse the rows no node of the build took."""
        left = [(row, level) for level, rows in self._open.items() for row in rows.values()]
        if left:
            row, level = min(left)
            raise _bad_record(self.source, row, "level", f"no subtree-rooting node at level {level}")
