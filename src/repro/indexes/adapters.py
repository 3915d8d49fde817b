"""CSV adapters: bind Algorithm 2 to concrete index structures.

Each adapter implements :class:`repro.core.csv_algorithm.CsvAdapter`
for one index family, encoding the paper's per-index decisions
(Section 5.1):

* **LIPP / SALI** — no in-node search exists, so the smoothing loss
  change alone is the cost condition; a rebuilt subtree becomes one
  precise-position node sized to the smoothed point set, with virtual
  points materialising as EMPTY slots.  The adapter builds that node;
  putting it into the tree (relinking, freeing the old subtree,
  dropping the flat view) is :meth:`LippIndex._replace_subtree`'s.
* **ALEX** — leaf search is real, so Eq. 22 prices the trade between
  removed traversal levels and the merged node's expected search
  steps; a rebuilt subtree becomes one gapped data node laid out at
  the smoothed ranks.

The same split decides the order of the walk
(``rebuild_depends_on_keys_alone``).  LIPP/SALI's loss change and
``LippNode.from_keys(keys, …, m, model)`` read nothing but the handle's
key set, so whatever was smoothed beneath a handle is gone once the
handle is rebuilt: the engine may visit parent-first and skip the
descendants.  ALEX's ``cost_delta`` prices the data nodes that are
beneath the handle *now* (``_subtree_profile``), so its descendants
must be settled before it is priced: children-first.

Node construction is shared with the families' builds: a LIPP/SALI
:meth:`install` lays its node out with the same ``lay_out`` level loop
that lays out a recorded rebuild when a build consumes CSV's record
(``LippNode.from_keys_leveled`` makes the nodes of its arrays), and
ALEX's uses ``AlexDataNode.from_smoothed``, as ``AlexIndex._build_node``
does there.
"""

from __future__ import annotations

import numpy as np

from ..core.cost_model import CostConstants, expected_search_steps
from ..core.exceptions import IndexStateError
from ..core.linear_model import LinearModel
from ..core.smoothing import SmoothingResult
from .alex.data_node import AlexDataNode
from .alex.index import AlexIndex
from .alex.inner_node import AlexInnerNode
from .lipp.index import LippIndex
from .lipp.node import LippNode

__all__ = ["LippCsvAdapter", "AlexCsvAdapter", "adapter_for"]


class LippCsvAdapter:
    """CSV adapter for :class:`~repro.indexes.lipp.index.LippIndex`,
    SALI's included: SALI keeps LIPP's precise-position query path.

    Handles are :class:`LippNode` objects that root a subtree.  The
    root is never a handle (CSV stops at the second level from the
    top; a rebuild needs a parent to attach to).
    """

    rebuild_depends_on_keys_alone = True

    def __init__(self, index: LippIndex):
        self.index = index

    # -- Algorithm 2 hooks ----------------------------------------------
    def child_handles(self, handle: LippNode | None) -> list[LippNode]:
        """Children of *handle* (of the root for ``None``) that root a
        subtree; SALI's flattened leaves never do."""
        node = self.index.root if handle is None else handle
        return [c for c in node.children.values() if isinstance(c, LippNode) and c.has_subtree]

    def collect(self, handle: LippNode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted keys of the subtree, their values and their levels."""
        return handle.collect_leveled()

    def cost_delta(self, handle: LippNode, smoothing: SmoothingResult) -> float:
        """Loss change (Section 5.1: the loss *is* the condition)."""
        return smoothing.final_loss - smoothing.original_loss

    def rebuild(
        self, handle: LippNode, smoothing: SmoothingResult, collected: tuple
    ) -> tuple[int, int]:
        """Replace the subtree with one smoothed node; count the keys
        it promoted and the keys it demoted."""
        keys, values, levels_before = collected
        levels_after = self.install(handle, keys, values, int(smoothing.points.size), smoothing.model)
        # Both level arrays parallel the same sorted key set.
        return (
            int(np.count_nonzero(levels_after < levels_before)),
            int(np.count_nonzero(levels_after > levels_before)),
        )

    def install(
        self, handle: LippNode, keys: np.ndarray, values: np.ndarray, m: int, model: LinearModel
    ) -> np.ndarray:
        """Put one precise-position node of *m* slots laid out by
        *model* in *handle*'s place; returns the level each key now
        sits at."""
        if handle.parent is None:
            raise IndexStateError("CSV never rebuilds the root node")
        merged, levels = LippNode.from_keys_leveled(
            keys, values, level=handle.level, slot_factor=self.index.slot_factor, m=m, model=model
        )
        merged.virtual_slots = m - keys.size
        self.index._replace_subtree(handle, merged)
        return levels


class AlexCsvAdapter:
    """CSV adapter for :class:`~repro.indexes.alex.index.AlexIndex`.

    Handles are inner nodes; a rebuild replaces the inner node with a
    single gapped data node laid out at the smoothed ranks (virtual
    points become the gaps).  The Eq. 22 cost model decides.
    """

    def __init__(self, index: AlexIndex, constants: CostConstants | None = None):
        self.index = index
        self.constants = constants or CostConstants()

    rebuild_depends_on_keys_alone = False

    # -- Algorithm 2 hooks ----------------------------------------------
    def child_handles(self, handle: AlexInnerNode | None) -> list[AlexInnerNode]:
        """Inner-node children of *handle* (of the root for ``None``)."""
        node = self.index.root if handle is None else handle
        if not isinstance(node, AlexInnerNode):
            return []
        return [c for c in node.iter_unique_children() if isinstance(c, AlexInnerNode)]

    def collect(self, handle: AlexInnerNode) -> tuple[np.ndarray, np.ndarray]:
        """Sorted keys of the subtree, with their values."""
        return handle.collect_arrays()

    def _subtree_profile(self, handle: AlexInnerNode) -> tuple[float, float, int]:
        """(weighted expected search steps, weighted key level, keys)."""
        step_sum = 0.0
        level_sum = 0.0
        total = 0
        for node in handle.walk():
            if isinstance(node, AlexDataNode) and node.n_keys:
                step_sum += node.expected_search_steps() * node.n_keys
                level_sum += node.level * node.n_keys
                total += node.n_keys
        if total == 0:
            return 1.0, float(handle.level), 0
        return step_sum / total, level_sum / total, total

    def cost_delta(self, handle: AlexInnerNode, smoothing: SmoothingResult) -> float:
        """Eq. 22 applied before/after the hypothetical merge."""
        steps_before, level_before, total = self._subtree_profile(handle)
        if total == 0:
            return 0.0
        n = int(smoothing.original_keys.size)
        loss_on_keys = smoothing.loss_over_original_keys()
        steps_after = expected_search_steps(loss_on_keys, n)
        cost_before = (
            self.constants.search_ns * steps_before
            + self.constants.traversal_ns * level_before
        )
        cost_after = (
            self.constants.search_ns * steps_after
            + self.constants.traversal_ns * handle.level
        )
        return cost_after - cost_before

    def rebuild(
        self, handle: AlexInnerNode, smoothing: SmoothingResult, collected: tuple
    ) -> tuple[int, int]:
        """Replace the subtree with one gapped data node; count
        promotions (the merge only lifts keys: none is demoted)."""
        keys, values = collected
        promoted = 0
        for node in handle.walk():
            if isinstance(node, AlexDataNode) and node.level > handle.level:
                promoted += node.n_keys
        self.install(handle, keys, values, int(smoothing.points.size), smoothing.model)
        return promoted, 0

    def install(
        self, handle: AlexInnerNode, keys: np.ndarray, values: np.ndarray, m: int, model: LinearModel
    ) -> None:
        """Put the merged gapped data node of *keys* in *handle*'s place."""
        if handle.parent is None:
            raise IndexStateError("CSV never rebuilds the root node")
        assert handle.parent_slot is not None
        handle.parent.attach(
            handle.parent_slot, AlexDataNode.from_smoothed(keys, values, m, model, handle.level)
        )


def adapter_for(index, constants: CostConstants | None = None):
    """Pick the right CSV adapter for *index*."""
    if isinstance(index, LippIndex):
        return LippCsvAdapter(index)
    if isinstance(index, AlexIndex):
        return AlexCsvAdapter(index, constants)
    raise IndexStateError(f"no CSV adapter for index type {type(index).__name__}")
