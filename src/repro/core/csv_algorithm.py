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

The engine is index-agnostic: concrete indexes plug in through the
:class:`CsvAdapter` protocol implemented in
:mod:`repro.indexes.adapters`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Protocol, runtime_checkable

import numpy as np

from .exceptions import SmoothingBudgetError
from .smoothing import SmoothingResult, smooth_keys

__all__ = ["CsvAdapter", "CsvConfig", "CsvNodeRecord", "CsvReport", "apply_csv"]


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
        """Replace the subtree with a merged node; return how many of
        its keys now sit at a shallower level (promoted) and how many
        at a deeper one (demoted)."""
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
