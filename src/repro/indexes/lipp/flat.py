"""Level-ordered flat (struct-of-arrays) view of a LIPP/SALI tree.

The node-object representation (:class:`~repro.indexes.lipp.node.
LippNode`) is ideal for mutation but terrible for batch traversal:
walking it pays a Python dispatch per visited node, and a LIPP tree
built at slot factor 1.0 has *thousands* of two-key conflict children.
The flat view is therefore the only batch representation of a
LIPP/SALI tree — batch lookups, the sparse bulk merge and the
structure reports all run on it; the node objects serve per-key
``insert`` / ``lookup_stats`` (the scalar walk the parity tests use as
their oracle).

:class:`FlatLipp` compiles the tree into contiguous level-ordered
arrays:

* per node (BFS order, so each level occupies one contiguous id
  range): ``node_level``, the model coefficients ``node_a`` /
  ``node_b`` / ``node_c`` / ``node_pivot`` (quadratic form with
  ``a = 0`` for the ubiquitous linear models, evaluated as
  ``(a*t + b)*t + c`` with ``t = key - pivot`` so linear predictions
  are bit-identical to :meth:`LinearModel.predict`), and the CSR-style
  ``slot_start`` offsets mapping node ``i`` to its slot range
  ``[slot_start[i], slot_start[i+1])``;
* per slot (concatenated in node order): ``slot_type`` /
  ``slot_keys`` / ``slot_values`` exactly as in the nodes, plus
  ``slot_child`` holding the child *node id* for CHILD slots (or an
  encoded index into :attr:`leaves` when the child is one of SALI's
  flattened subtrees).

A batch lookup is then a few vectorised gathers per level over the
whole surviving frontier — predict slots for every active query at
once, resolve DATA/EMPTY terminals with array compares, and route
CHILD survivors down by assigning their next node ids — instead of a
Python-object walk per node.  The same ``locate`` sweep drives the
in-place gapped bulk merge in
:meth:`~repro.indexes.lipp.index.LippIndex.bulk_insert_many`.

**Buffer sharing.**  Before ``compile`` a node's slot arrays are views
into whatever built it — the per-level buffer of a
:meth:`~repro.indexes.lipp.node.LippNode.from_keys` build, or the
previous flat view's buffers.  ``compile`` walks the tree once
(breadth-first, collecting one ``(parent id, slot, child id)`` triple
per CHILD slot, scattered into ``slot_child`` in one assignment),
concatenates the slot arrays into buffers the new view owns, and
re-points every node's ``slot_type`` / ``slot_keys`` / ``slot_values``
at views into them.  The node objects remain the authoritative
mutable structure, and any in-place slot write (an EMPTY slot filled
by ``insert``, a DATA value overwritten) is immediately visible to the
flat view with no invalidation.  Only *structural* changes — a conflict
child created, a subtree rebuilt, a hot subtree flattened — stale the
compiled mapping; the index invalidates and lazily recompiles.
``StaleFlatError`` is the safety net for structural edits that bypass
the index API (tests performing direct tree surgery must call
``invalidate_flat``).
"""

from __future__ import annotations

import numpy as np

from ...core.exceptions import IndexStateError
from ...core.linear_model import LinearModel, QuadraticModel
from ..base import group_runs
from .node import SLOT_CHILD, SLOT_DATA, SLOT_EMPTY, LippNode

__all__ = ["FlatLipp", "StaleFlatError"]

#: ``slot_child`` encoding: ``>= 0`` is a node id, ``NO_CHILD`` marks a
#: non-CHILD slot, and ``<= FLAT_LEAF_BASE`` encodes flattened-leaf
#: index ``FLAT_LEAF_BASE - value``.
NO_CHILD = -1
FLAT_LEAF_BASE = -2


class StaleFlatError(RuntimeError):
    """The compiled flat view no longer matches the node tree.

    Raised before any output is written, so callers can invalidate,
    recompile and retry the sweep.
    """


def _leaf_like(node) -> bool:
    """Whether *node* is a flattened leaf (duck-typed, non-LippNode)."""
    return not isinstance(node, LippNode)


class FlatLipp:
    """Compiled level-ordered slot arrays over a LIPP/SALI subtree."""

    __slots__ = (
        "nodes",
        "leaves",
        "node_level",
        "node_a",
        "node_b",
        "node_c",
        "node_pivot",
        "slot_start",
        "slot_type",
        "slot_keys",
        "slot_values",
        "slot_child",
    )

    def __init__(self) -> None:
        self.nodes: list[LippNode] = []
        self.leaves: list = []

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @classmethod
    def compile(cls, root: LippNode) -> "FlatLipp":
        """Flatten the tree under *root* (BFS), sharing slot buffers.

        Raises :class:`IndexStateError` on a node model that is
        neither linear nor quadratic (the two forms the coefficient
        arrays can hold).
        """
        flat = cls()
        nodes = flat.nodes
        leaves = flat.leaves
        nodes.append(root)
        # One (parent id, slot, child id) triple per CHILD slot; a
        # flattened leaf's child id is its encoded index in ``leaves``.
        link_parent: list[int] = []
        link_slot: list[int] = []
        link_child: list[int] = []
        level: list[int] = []
        a: list[float] = []
        b: list[float] = []
        c: list[float] = []
        pivot: list[int] = []
        # BFS: children are appended strictly after their parents, so
        # node ids are level-ordered and each level is contiguous.
        for head, node in enumerate(nodes):
            model = node.model
            if isinstance(model, LinearModel):
                a.append(0.0)
                b.append(model.slope)
                c.append(model.intercept)
            elif isinstance(model, QuadraticModel):
                a.append(model.a)
                b.append(model.b)
                c.append(model.c)
            else:
                raise IndexStateError(
                    f"cannot compile a {type(model).__name__} node model"
                )
            pivot.append(model.pivot)
            level.append(node.level)
            if not node.children:
                continue
            for slot, child in sorted(node.children.items()):
                link_parent.append(head)
                link_slot.append(slot)
                if _leaf_like(child):
                    link_child.append(FLAT_LEAF_BASE - len(leaves))
                    leaves.append(child)
                else:
                    link_child.append(len(nodes))
                    nodes.append(child)
        flat.node_level = np.asarray(level, dtype=np.int64)
        flat.node_a = np.asarray(a, dtype=np.float64)
        flat.node_b = np.asarray(b, dtype=np.float64)
        flat.node_c = np.asarray(c, dtype=np.float64)
        flat.node_pivot = np.asarray(pivot, dtype=np.int64)
        slot_start = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum([node.slot_type.size for node in nodes], out=slot_start[1:])
        flat.slot_start = slot_start
        flat.slot_type = np.concatenate([node.slot_type for node in nodes])
        flat.slot_keys = np.concatenate([node.slot_keys for node in nodes])
        flat.slot_values = np.concatenate([node.slot_values for node in nodes])
        flat.slot_child = np.full(int(slot_start[-1]), NO_CHILD, dtype=np.int64)
        if link_child:
            flat.slot_child[slot_start[link_parent] + link_slot] = link_child
        # Re-point every node's slot arrays at views into the shared
        # buffers: in-place slot writes through the node API stay
        # visible to the flat view with no recompile.
        bounds = slot_start.tolist()
        for i, node in enumerate(nodes):
            base, end = bounds[i], bounds[i + 1]
            node.slot_type = flat.slot_type[base:end]
            node.slot_keys = flat.slot_keys[base:end]
            node.slot_values = flat.slot_values[base:end]
        return flat

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of (non-leaf) LIPP nodes in the compiled view."""
        return len(self.nodes)

    @property
    def total_slots(self) -> int:
        """Total slot count across every compiled node."""
        return int(self.slot_start[-1])

    def _check_fresh(self) -> None:
        """Raise :class:`StaleFlatError` on a detectable structural skew.

        A CHILD slot whose ``slot_child`` mapping is missing means a
        conflict child was created through the shared buffers without
        an ``invalidate_flat`` — refuse to traverse."""
        bad = (self.slot_type == SLOT_CHILD) & (self.slot_child == NO_CHILD)
        if bool(np.any(bad)):
            raise StaleFlatError("flat view is stale: unmapped CHILD slot")

    def _predict_slots(self, ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Global slot index each node model assigns to its query key."""
        t = (keys - self.node_pivot[ids]).astype(np.float64)
        pos = (self.node_a[ids] * t + self.node_b[ids]) * t + self.node_c[ids]
        base = self.slot_start[ids]
        width = (self.slot_start[ids + 1] - base).astype(np.float64)
        # Clamp in float space before rounding: identical result to the
        # scalar round-then-clamp (bounds are integers and rounding is
        # monotone) without int64 overflow on wild extrapolations.
        pos = np.rint(np.clip(pos, 0.0, width - 1.0)).astype(np.int64)
        return base + pos

    # ------------------------------------------------------------------
    # Batched traversal
    # ------------------------------------------------------------------
    def lookup_many_into(
        self,
        q: np.ndarray,
        found: np.ndarray,
        values: np.ndarray,
        levels: np.ndarray,
        steps: np.ndarray,
        visit_counts: np.ndarray | None = None,
        leaf_visits: np.ndarray | None = None,
    ) -> None:
        """Vectorised multi-level lookup sweep, scattered into outputs.

        All four output arrays parallel *q*.  With *visit_counts* (one
        int64 cell per node) every node on each query's path is
        credited one visit — the aggregate equivalent of SALI's
        per-query ``record_path``; *leaf_visits* does the same for
        flattened leaves.  Raises :class:`StaleFlatError` (before
        writing anything) when the view no longer matches the tree.
        """
        self._check_fresh()
        active = np.arange(q.size)
        cur = np.zeros(q.size, dtype=np.int64)  # everyone starts at the root
        depth = 1
        while active.size:
            if visit_counts is not None:
                visit_counts += np.bincount(cur, minlength=self.n_nodes)
            keys = q[active]
            gslot = self._predict_slots(cur, keys)
            kinds = self.slot_type[gslot]
            is_child = kinds == SLOT_CHILD
            terminal = ~is_child
            if np.any(terminal):
                t_active = active[terminal]
                t_slot = gslot[terminal]
                levels[t_active] = depth
                hit = (kinds[terminal] == SLOT_DATA) & (self.slot_keys[t_slot] == keys[terminal])
                hit_active = t_active[hit]
                found[hit_active] = True
                values[hit_active] = self.slot_values[t_slot[hit]]
            c_active = active[is_child]
            nxt = self.slot_child[gslot[is_child]]
            leaf_sel = nxt <= FLAT_LEAF_BASE
            if np.any(leaf_sel):
                l_active = c_active[leaf_sel]
                l_ids = FLAT_LEAF_BASE - nxt[leaf_sel]
                levels[l_active] = depth + 1
                if leaf_visits is not None:
                    leaf_visits += np.bincount(l_ids, minlength=len(self.leaves))
                for group in group_runs(l_ids):
                    leaf = self.leaves[int(l_ids[group[0]])]
                    sel = l_active[group]
                    g_found, g_values, g_steps = leaf.lookup_batch(q[sel])
                    found[sel] = g_found
                    values[sel] = g_values
                    steps[sel] = g_steps
                keep = ~leaf_sel
                c_active = c_active[keep]
                nxt = nxt[keep]
            active = c_active
            cur = nxt
            depth += 1

    def locate(
        self, bkeys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Terminal position of each key: ``(node, gslot, kind, leaf)``.

        The same per-level sweep as :meth:`lookup_many_into`, but it
        returns where each key's descent *ends* instead of resolving
        hits: ``node[i]`` / ``gslot[i]`` / ``kind[i]`` identify the
        terminal node id, global slot and slot type, or ``leaf[i]``
        (else -1) the flattened leaf the key routed into.  This is the
        addressing pass of the in-place gapped bulk merge.
        """
        self._check_fresh()
        n = int(bkeys.size)
        term_node = np.full(n, -1, dtype=np.int64)
        term_slot = np.full(n, -1, dtype=np.int64)
        term_kind = np.full(n, -1, dtype=np.int64)
        leaf_of = np.full(n, -1, dtype=np.int64)
        active = np.arange(n)
        cur = np.zeros(n, dtype=np.int64)
        while active.size:
            gslot = self._predict_slots(cur, bkeys[active])
            kinds = self.slot_type[gslot]
            is_child = kinds == SLOT_CHILD
            terminal = ~is_child
            if np.any(terminal):
                t_active = active[terminal]
                term_node[t_active] = cur[terminal]
                term_slot[t_active] = gslot[terminal]
                term_kind[t_active] = kinds[terminal]
            active = active[is_child]
            nxt = self.slot_child[gslot[is_child]]
            leaf_sel = nxt <= FLAT_LEAF_BASE
            if np.any(leaf_sel):
                leaf_of[active[leaf_sel]] = FLAT_LEAF_BASE - nxt[leaf_sel]
                keep = ~leaf_sel
                active = active[keep]
                nxt = nxt[keep]
            cur = nxt
        return term_node, term_slot, term_kind, leaf_of

    def credit_access(
        self, visit_counts: np.ndarray, leaf_visits: np.ndarray
    ) -> None:
        """Scatter sweep visit counters back onto the node objects.

        Keeps the node tree the single source of truth for SALI's
        access statistics (``AccessTracker`` reads ``access_count``
        off the objects when picking flattening targets)."""
        for i in np.nonzero(visit_counts)[0].tolist():
            self.nodes[i].access_count += int(visit_counts[i])
        for i in np.nonzero(leaf_visits)[0].tolist():
            self.leaves[i].access_count += int(leaf_visits[i])

    # ------------------------------------------------------------------
    # Vectorised structural introspection
    # ------------------------------------------------------------------
    def _data_slot_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(global DATA slot indexes, owning node id per slot)."""
        data_slots = np.nonzero(self.slot_type == SLOT_DATA)[0]
        node_of = np.searchsorted(self.slot_start, data_slots, side="right") - 1
        return data_slots, node_of

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Every stored key with its value, as arrays in key order —
        one masked gather over the DATA slots plus the flattened
        leaves' dense arrays, and one argsort."""
        data_slots = np.flatnonzero(self.slot_type == SLOT_DATA)
        keys = np.concatenate(
            [self.slot_keys[data_slots], *(leaf.keys for leaf in self.leaves)]
        )
        values = np.concatenate(
            [self.slot_values[data_slots], *(leaf.values for leaf in self.leaves)]
        )
        order = np.argsort(keys, kind="stable")
        return keys[order], values[order]

    def level_histogram(self) -> dict[int, int]:
        """Keys stored per level — one bincount over the DATA slots."""
        __, node_of = self._data_slot_nodes()
        max_level = int(self.node_level.max(initial=0))
        for leaf in self.leaves:
            max_level = max(max_level, int(leaf.level))
        counts = np.bincount(self.node_level[node_of], minlength=max_level + 1)
        for leaf in self.leaves:
            counts[int(leaf.level)] += int(leaf.keys.size)
        return {int(lvl): int(c) for lvl, c in enumerate(counts) if c}

    def keys_at_or_below(self, level: int) -> np.ndarray:
        """Sorted keys stored at *level* or deeper — masked gathers."""
        data_slots, node_of = self._data_slot_nodes()
        deep = self.node_level[node_of] >= level
        parts = [self.slot_keys[data_slots[deep]]]
        parts.extend(leaf.keys for leaf in self.leaves if leaf.level >= level)
        return np.sort(np.concatenate(parts)) if parts else np.empty(0, np.int64)

    def node_levels(self) -> list[int]:
        """Level of every node (leaves included), unordered."""
        return self.node_level.tolist() + [int(leaf.level) for leaf in self.leaves]

    def height(self) -> int:
        """Deepest level of any node or flattened leaf."""
        deepest = int(self.node_level.max(initial=1))
        for leaf in self.leaves:
            deepest = max(deepest, int(leaf.level))
        return deepest

    def empty_and_total_slots(self) -> tuple[int, int]:
        """(EMPTY slots, total slots) with flattened leaves' dense
        entries counted as fully occupied slots."""
        empty = int(np.count_nonzero(self.slot_type == SLOT_EMPTY))
        total = self.total_slots + sum(int(leaf.keys.size) for leaf in self.leaves)
        return empty, total

    def child_slot_count(self) -> int:
        """CHILD slots across every node (= child pointers stored)."""
        return int(np.count_nonzero(self.slot_type == SLOT_CHILD))
