"""CSV adapters: bind Algorithm 2 to concrete index structures.

Each adapter implements :class:`repro.core.csv_algorithm.CsvAdapter`
for one index family, encoding the paper's per-index decisions
(Section 5.1):

* **LIPP / SALI** — no in-node search exists, so the smoothing loss
  change alone is the cost condition; a rebuilt subtree becomes one
  precise-position node sized to the smoothed point set, with virtual
  points materialising as EMPTY slots.
* **ALEX** — leaf search is real, so Eq. 22 prices the trade between
  removed traversal levels and the merged node's expected search
  steps; a rebuilt subtree becomes one gapped data node laid out at
  the smoothed ranks.
"""

from __future__ import annotations

import numpy as np

from ..core.cost_model import CostConstants, expected_search_steps
from ..core.exceptions import IndexStateError
from ..core.smoothing import SmoothingResult
from .alex.data_node import AlexDataNode
from .alex.index import AlexIndex
from .alex.inner_node import AlexInnerNode
from .lipp.index import LippIndex
from .lipp.node import SLOT_DATA, LippNode
from .sali.index import SaliIndex

__all__ = ["LippCsvAdapter", "SaliCsvAdapter", "AlexCsvAdapter", "adapter_for"]


def _key_levels(node: LippNode) -> np.ndarray:
    """Level of every key under *node*, in ascending key order."""
    keys: list[np.ndarray] = []
    levels: list[np.ndarray] = []
    for sub in node.walk():
        if isinstance(sub, LippNode):
            stored = sub.slot_keys[sub.slot_type == SLOT_DATA]
        else:  # SALI's flattened leaf: a dense key array
            stored = sub.keys
        keys.append(stored)
        levels.append(np.full(stored.size, sub.level, dtype=np.int64))
    return np.concatenate(levels)[np.argsort(np.concatenate(keys))]


class LippCsvAdapter:
    """CSV adapter for :class:`~repro.indexes.lipp.index.LippIndex`.

    Handles are :class:`LippNode` objects that root a subtree.  The
    root is never a handle (CSV stops at the second level from the
    top; the engine's ``stop_level`` enforces this, and the adapter
    additionally requires a parent so rebuilds have an attachment
    point).
    """

    def __init__(self, index: LippIndex):
        self.index = index

    # -- enumeration ----------------------------------------------------
    def _subtree_nodes(self) -> list[LippNode]:
        return [
            node
            for node in self.index.root.walk()
            if isinstance(node, LippNode) and node.has_subtree and node.parent is not None
        ]

    def max_level(self) -> int:
        """Deepest level with a subtree-rooting node (0 if none)."""
        nodes = self._subtree_nodes()
        if not nodes:
            return 0
        return max(node.level for node in nodes)

    def subtree_handles(self, level: int) -> list[LippNode]:
        """Subtree-rooting nodes at *level* (excluding the root)."""
        return [node for node in self._subtree_nodes() if node.level == level]

    # -- Algorithm 2 hooks ----------------------------------------------
    def collect_keys(self, handle: LippNode) -> np.ndarray:
        """Sorted keys of the subtree rooted at *handle*."""
        keys, __ = handle.collect_arrays()
        return keys

    def cost_delta(self, handle: LippNode, smoothing: SmoothingResult) -> float:
        """Loss change (Section 5.1: the loss *is* the condition)."""
        return smoothing.final_loss - smoothing.original_loss

    def rebuild(self, handle: LippNode, smoothing: SmoothingResult) -> int:
        """Replace the subtree with one smoothed node; count promotions."""
        keys, values = handle.collect_arrays()
        levels_before = _key_levels(handle)
        merged = LippNode.from_keys(
            keys,
            values,
            level=handle.level,
            slot_factor=self.index.slot_factor,
            m=int(smoothing.points.size),
            model=smoothing.model,
        )
        merged.virtual_slots = smoothing.n_virtual
        self._attach(handle, merged)
        # Same key set on both sides, so the sorted orders align.
        return int(np.count_nonzero(_key_levels(merged) < levels_before))

    def _attach(self, old: LippNode, new: LippNode) -> None:
        parent = old.parent
        if parent is None:
            raise IndexStateError("CSV never rebuilds the root node")
        slot = old.parent_slot
        assert slot is not None
        parent.children[slot] = new
        new.parent = parent
        new.parent_slot = slot
        # Direct tree surgery: the index's compiled flat view no
        # longer matches the structure.
        self.index.invalidate_flat()


class SaliCsvAdapter(LippCsvAdapter):
    """CSV adapter for SALI — identical mechanics to LIPP (SALI keeps
    LIPP's precise-position query path; flattened nodes are left
    untouched because they are SALI's own optimisation)."""

    def __init__(self, index: SaliIndex):
        super().__init__(index)


class AlexCsvAdapter:
    """CSV adapter for :class:`~repro.indexes.alex.index.AlexIndex`.

    Handles are inner nodes; a rebuild replaces the inner node with a
    single gapped data node laid out at the smoothed ranks (virtual
    points become the gaps).  The Eq. 22 cost model decides.
    """

    def __init__(self, index: AlexIndex, constants: CostConstants | None = None):
        self.index = index
        self.constants = constants or CostConstants()

    # -- enumeration ----------------------------------------------------
    def _inner_nodes(self) -> list[AlexInnerNode]:
        root = self.index.root
        if not isinstance(root, AlexInnerNode):
            return []
        return [n for n in root.walk() if isinstance(n, AlexInnerNode)]

    def max_level(self) -> int:
        """Deepest level with a non-root inner node (0 if none)."""
        nodes = [n for n in self._inner_nodes() if n.parent is not None]
        if not nodes:
            return 0
        return max(node.level for node in nodes)

    def subtree_handles(self, level: int) -> list[AlexInnerNode]:
        """Non-root inner nodes at *level*."""
        return [
            node
            for node in self._inner_nodes()
            if node.level == level and node.parent is not None
        ]

    # -- Algorithm 2 hooks ----------------------------------------------
    def collect_keys(self, handle: AlexInnerNode) -> np.ndarray:
        """Sorted keys of the subtree rooted at *handle*."""
        keys, __ = handle.collect_arrays()
        return keys

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

    def rebuild(self, handle: AlexInnerNode, smoothing: SmoothingResult) -> int:
        """Replace the subtree with one gapped data node; count promotions."""
        keys, values = handle.collect_arrays()
        promoted = 0
        for node in handle.walk():
            if isinstance(node, AlexDataNode) and node.level > handle.level:
                promoted += node.n_keys
        # Size the merged node to whichever gap budget is larger: the
        # smoothed point set (virtual points = gaps) or ALEX's normal
        # density headroom.  Taking the max instead of stacking both
        # keeps the storage overhead an α-fraction (Fig. 8h) while a
        # near-full node would otherwise double on the first insert.
        from .alex.data_node import TARGET_DENSITY

        n_points = int(smoothing.points.size)
        capacity = max(
            n_points + 1,
            int(np.ceil(smoothing.original_keys.size / TARGET_DENSITY)),
        )
        model = smoothing.model.scaled(capacity / n_points)
        merged = AlexDataNode.from_model(
            keys,
            values,
            capacity=capacity,
            model=model,
            level=handle.level,
        )
        merged.virtual_slots = smoothing.n_virtual
        parent = handle.parent
        if parent is None:
            raise IndexStateError("CSV never rebuilds the root node")
        assert handle.parent_slot is not None
        parent.attach(handle.parent_slot, merged)
        return promoted


def adapter_for(index, constants: CostConstants | None = None):
    """Pick the right CSV adapter for *index*."""
    if isinstance(index, SaliIndex):
        return SaliCsvAdapter(index)
    if isinstance(index, LippIndex):
        return LippCsvAdapter(index)
    if isinstance(index, AlexIndex):
        return AlexCsvAdapter(index, constants)
    raise IndexStateError(f"no CSV adapter for index type {type(index).__name__}")
