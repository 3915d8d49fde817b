"""LIPP node: a precise-position gapped slot array (Wu et al. [33]).

Every node owns ``m`` slots addressed *directly* by its linear model:
``slot = clamp(round(model(key)))``.  A slot is EMPTY, holds one DATA
entry, or points to a CHILD node built recursively from the keys that
collided there.  Because the model prediction *is* the position, LIPP
has no in-node search component — lookups cost traversal only, which
is why the paper uses the pure loss value as LIPP's CSV cost condition
(Section 5.1).

Model choice at build time follows LIPP's FMCD idea in simplified
form: an OLS fit over the keys' ranks, scaled to the slot count, with
a min-max (endpoint interpolation) fallback whenever the OLS model
would dump every key into a single slot (which would not terminate).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

import numpy as np

from ...core.linear_model import LinearModel, fit_linear

__all__ = ["SLOT_EMPTY", "SLOT_DATA", "SLOT_CHILD", "LippNode"]

SLOT_EMPTY = 0
SLOT_DATA = 1
SLOT_CHILD = 2

#: Slots allocated per key at build time.  1.0 reproduces the compact
#: allocation of the original LIPP; CSV-rebuilt nodes instead size the
#: array to the smoothed point set, materialising the virtual points
#: as reusable gaps.
DEFAULT_SLOT_FACTOR = 1.0

MIN_SLOTS = 2


def _fallback_model(keys: np.ndarray, m: int) -> LinearModel:
    """Endpoint interpolation: first key → slot 0, last key → slot m-1.

    Guarantees at least two distinct predicted slots for n >= 2 keys,
    so recursion on conflict groups strictly shrinks.
    """
    span = float(int(keys[-1]) - int(keys[0]))
    slope = (m - 1) / span
    return LinearModel(slope, 0.0, pivot=int(keys[0]))


class LippNode:
    """One LIPP node (slot array + model + children)."""

    __slots__ = (
        "model",
        "slot_type",
        "slot_keys",
        "slot_values",
        "children",
        "level",
        "parent",
        "parent_slot",
        "n_subtree_keys",
        "virtual_slots",
        "conflicts_since_build",
        "access_count",
    )

    def __init__(self, m: int, model: LinearModel, level: int):
        self.model = model
        self.slot_type = np.zeros(m, dtype=np.uint8)
        self.slot_keys = np.zeros(m, dtype=np.int64)
        self.slot_values = np.zeros(m, dtype=np.int64)
        self.children: dict[int, "LippNode"] = {}
        self.level = level
        self.parent: "LippNode | None" = None
        self.parent_slot: int | None = None
        self.n_subtree_keys = 0
        #: Slots that exist because of CSV virtual points (gap budget).
        self.virtual_slots = 0
        #: Insert-time conflicts accumulated since this node was built;
        #: drives LIPP's subtree-rebuild adjustment.
        self.conflicts_since_build = 0
        #: Lookup traversals through this node (used by SALI's
        #: probability model; plain LIPP ignores it).
        self.access_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_keys(
        cls,
        keys: np.ndarray,
        values: np.ndarray,
        level: int,
        slot_factor: float = DEFAULT_SLOT_FACTOR,
        m: int | None = None,
        model: LinearModel | None = None,
    ) -> "LippNode":
        """Build a node (and conflict children) over level frontiers.

        With *m*/*model* given, the caller controls the root layout —
        this is how CSV rebuilds install the smoothed model over an
        array sized to the smoothed point set.  Construction is an
        explicit breadth-first worklist: every node lays out its whole
        key run with vectorised grouping, and conflict runs are queued
        as the next level's frontier instead of recursing — bounded
        stack depth on adversarially deep conflict chains, and the
        natural emission order for the level-ordered flat compile.
        """
        root, pending = cls._layout(keys, values, level, slot_factor, m, model)
        frontier = deque(pending)
        while frontier:
            parent, slot, group_keys, group_values = frontier.popleft()
            child, sub_pending = cls._layout(
                group_keys, group_values, parent.level + 1, slot_factor, None, None
            )
            child.parent = parent
            child.parent_slot = slot
            parent.slot_type[slot] = SLOT_CHILD
            parent.children[slot] = child
            frontier.extend(sub_pending)
        return root

    @classmethod
    def _layout(
        cls,
        keys: np.ndarray,
        values: np.ndarray,
        level: int,
        slot_factor: float,
        m: int | None,
        model: LinearModel | None,
    ) -> tuple["LippNode", list]:
        """Lay out one node; conflict runs are returned, not built.

        Returns ``(node, pending)`` where each pending entry is
        ``(node, slot, keys, values)`` — a conflict group the caller
        must attach as a child.
        """
        n = int(keys.size)
        if m is None:
            m = max(MIN_SLOTS, int(np.ceil(n * slot_factor)))
        if model is None and n == 2:
            # Conflict pairs are the bulk of all child builds; the OLS
            # fit over two ranks reduces analytically to endpoint
            # interpolation (first key -> slot 0, last -> slot m-1),
            # so skip the generic fit/predict/group machinery.  The
            # resulting layout is identical to the generic path's.
            k0 = int(keys[0])
            span = int(keys[1]) - k0
            node = cls(m, LinearModel((m - 1) / span, 0.0, pivot=k0), level)
            node.n_subtree_keys = 2
            node.slot_type[0] = SLOT_DATA
            node.slot_keys[0] = keys[0]
            node.slot_values[0] = values[0]
            node.slot_type[m - 1] = SLOT_DATA
            node.slot_keys[m - 1] = keys[1]
            node.slot_values[m - 1] = values[1]
            return node, []
        if model is None:
            if n <= 1:
                # Zero or one key: constant model (the n == 0 case is
                # the empty-index bulk-load seed; fit_linear rejects
                # empty inputs).
                model = LinearModel(0.0, 0.0)
            else:
                scaled = fit_linear(keys).scaled((m - 1) / max(n - 1, 1))
                model = scaled
        node = cls(m, model, level)
        node.n_subtree_keys = n
        if n == 0:
            return node, []
        predicted = np.clip(
            np.round(model.predict_array(keys)).astype(np.int64), 0, m - 1
        )
        if n >= 2 and np.all(predicted == predicted[0]):
            # Degenerate model: every key in one slot.  Fall back to
            # min-max interpolation (two or more distinct slots).
            node.model = _fallback_model(keys, m)
            predicted = np.clip(
                np.round(node.model.predict_array(keys)).astype(np.int64), 0, m - 1
            )
        # Group consecutive keys sharing a predicted slot.  Runs of
        # one key (the common case) are written with a single scatter;
        # only conflict runs become next-frontier children.
        boundaries = np.nonzero(np.diff(predicted))[0] + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [n]])
        single = (ends - starts) == 1
        if np.any(single):
            s_starts = starts[single]
            s_slots = predicted[s_starts]
            node.slot_type[s_slots] = SLOT_DATA
            node.slot_keys[s_slots] = keys[s_starts]
            node.slot_values[s_slots] = values[s_starts]
        multi = ~single
        pending = [
            (node, int(predicted[start]), keys[start:end], values[start:end])
            for start, end in zip(starts[multi].tolist(), ends[multi].tolist())
        ]
        return node, pending

    @property
    def m(self) -> int:
        """Slot count of this node."""
        return int(self.slot_type.size)

    @property
    def has_subtree(self) -> bool:
        return bool(self.children)

    @property
    def conflict_count(self) -> int:
        """Number of slots that overflowed into children."""
        return len(self.children)

    # ------------------------------------------------------------------
    # Queries / updates (single-node step; traversal drives recursion)
    # ------------------------------------------------------------------
    def slot_of(self, key: int) -> int:
        """The precise slot the model assigns to *key*."""
        return self.model.predict_clamped(key, self.m)

    def make_conflict_child(
        self, slot: int, key: int, value: int, slot_factor: float = DEFAULT_SLOT_FACTOR
    ) -> "LippNode":
        """Turn a DATA *slot* into a CHILD holding both entries."""
        pair = sorted([(int(self.slot_keys[slot]), int(self.slot_values[slot])), (key, value)])
        child_keys = np.asarray([p[0] for p in pair], dtype=np.int64)
        child_vals = np.asarray([p[1] for p in pair], dtype=np.int64)
        child = LippNode.from_keys(child_keys, child_vals, self.level + 1, slot_factor)
        child.parent = self
        child.parent_slot = slot
        self.slot_type[slot] = SLOT_CHILD
        self.slot_keys[slot] = 0
        self.slot_values[slot] = 0
        self.children[slot] = child
        return child

    def relevel(self, level: int) -> None:
        """Set this subtree's levels as if the root were at *level*."""
        delta = level - self.level
        if delta == 0:
            return
        for node in self.walk():
            node.level += delta

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterator[tuple[int, int]]:
        """Yield (key, value) pairs of the subtree in ascending order."""
        for slot in range(self.m):
            kind = int(self.slot_type[slot])
            if kind == SLOT_DATA:
                yield int(self.slot_keys[slot]), int(self.slot_values[slot])
            elif kind == SLOT_CHILD:
                yield from self.children[slot].iter_entries()

    def collect_leveled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Subtree keys, values and the level each entry is stored at,
        as parallel arrays in ascending key order.

        Vectorised flatten: every node contributes its DATA slots with
        one masked gather (non-``LippNode`` leaves — SALI's flattened
        subtrees — contribute their dense arrays), and a final argsort
        restores global key order.  Keys are unique across a subtree,
        so sorting the unordered concatenation is exact.  This is the
        primitive the bulk-ingest, subtree-rebuild and CSV paths lean
        on; a per-entry Python walk here would dominate their cost.
        """
        key_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        levels: list[int] = []
        for node in self.walk():
            if isinstance(node, LippNode):
                data = np.nonzero(node.slot_type == SLOT_DATA)[0]
                k, v = node.slot_keys[data], node.slot_values[data]
            else:  # flattened leaf (duck-typed): already dense arrays
                k, v = node.collect_arrays()
            if k.size:
                key_parts.append(k)
                val_parts.append(v)
                levels.append(node.level)
        if not key_parts:
            return tuple(np.empty(0, dtype=np.int64) for __ in range(3))
        keys = np.concatenate(key_parts)
        order = np.argsort(keys, kind="stable")
        per_key = np.repeat(levels, [k.size for k in key_parts])
        return keys[order], np.concatenate(val_parts)[order], per_key[order]

    def collect_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Subtree keys and values as sorted parallel arrays."""
        return self.collect_leveled()[:2]

    def walk(self) -> Iterator["LippNode"]:
        """Yield every node of the subtree (pre-order)."""
        stack: list[LippNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())
