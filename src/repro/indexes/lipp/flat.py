"""Level-ordered flat (struct-of-arrays) view of a LIPP/SALI tree.

The node-object representation (:class:`~repro.indexes.lipp.node.
LippNode`) is ideal for mutation but terrible for batch traversal:
walking it pays a Python dispatch per visited node, and a LIPP tree
built at slot factor 1.0 has *thousands* of two-key conflict children.
The flat view is therefore the only batch representation of a
LIPP/SALI tree — batch lookups, the sparse bulk merge and the
structure reports all run on it, and a range reads its DATA slots
through the index's key order (``LippIndex._key_order``); the node
objects serve per-key ``insert`` / ``lookup_stats`` (the scalar walk
the parity tests use as their oracle).

:class:`FlatLipp` holds the tree as contiguous level-ordered arrays —
written by the build itself (:meth:`FlatLipp.build`), or compiled from
the node objects after a structural edit (:meth:`FlatLipp.compile`):

* per node (BFS order, so each level occupies one contiguous id
  range): ``node_level``, the model coefficients ``node_a`` /
  ``node_b`` / ``node_c`` / ``node_pivot`` (quadratic form with
  ``a = 0`` for the ubiquitous linear models, evaluated as
  ``(a*t + b)*t + c`` with ``t = key - pivot`` so linear predictions
  are bit-identical to :meth:`LinearModel.predict`), ``node_last`` (the
  node's last slot, as the float the prediction is clamped to), and the
  CSR-style ``slot_start`` offsets mapping node ``i`` to its slot range
  ``[slot_start[i], slot_start[i+1])``; and ``node_subtree_keys`` /
  ``node_virtual_slots``, the two counts a node object is made with
  (:meth:`FlatLipp.materialize`; once the nodes exist, theirs are the
  counts writes keep);
* per slot (concatenated in node order): ``slot_type`` /
  ``slot_keys`` / ``slot_values`` exactly as in the nodes, plus
  ``slot_child`` (int32: it is the largest array a view owns outright)
  holding the child *node id* for CHILD slots (or an encoded index
  into :attr:`leaves` when the child is one of SALI's flattened
  subtrees).

A batch lookup is then a few vectorised gathers per level over the
whole surviving frontier — predict slots for every active query at
once, note where each one is, and route CHILD survivors down by
assigning their next node ids — instead of a Python-object walk per
node.  That walk is written once, :meth:`FlatLipp._descend_many`, and
returns where each key's descent ends; ``lookup_many_into`` resolves
the hits there in one pass after the walk, and ``locate`` — the
addressing pass of the in-place gapped bulk merge in
:meth:`~repro.indexes.lipp.index.LippIndex.bulk_insert_many` — hands
the ends over.  Nothing a sweep does is proportional to the view's slot
count: its cost follows the batch and the levels it descends.

**Who owns the slot buffers: build -> shard view -> forest.**  A node's
``slot_type`` / ``slot_keys`` / ``slot_values`` are always views into
buffers someone else allocated, and the owner changes at most twice:

1. *The shard's view.*  A LIPP build lays its tree out as this view's
   arrays (:func:`~repro.indexes.lipp.node.lay_out`), so the view owns
   the slot buffers from the start and there are no nodes to point at
   them.  Nodes made later (:meth:`materialize`) are views into them.
   A tree that a structural edit changed is ``compile``-d instead: it
   is walked once (breadth-first, collecting one ``(parent id, slot,
   child id)`` triple per CHILD slot, scattered into ``slot_child`` in
   one assignment), its slot arrays are concatenated into buffers the
   new view owns, and every node is re-pointed at views into them.
2. *The forest.*  :meth:`FlatLipp.concat` — the one view a router
   sweeps for all its shards — allocates the buffers for every tree at
   once, a region each, copies each shard's view into its region and
   re-points the view at it; a view with node objects has each node
   re-pointed too, and a built view has none, so placing it is array
   copies alone.  A tree that was only :meth:`FlatLipp.walk`-ed
   (everything but step 1's buffers) goes from its nodes' slots to
   forest buffers directly, and a shard that a merge changed
   structurally is walked again and written back over its own region
   (:meth:`FlatLipp.replace_tree`).  The (immutable) node arrays are
   handed over the same way; what the forest holds beside the shards'
   copies is its own ``slot_child`` (their mappings with every id
   shifted) and ``slot_start``.

At every stage there is one copy of the slots, the node objects (once
made) are the authoritative mutable structure, and an in-place slot
write — an EMPTY slot filled by ``insert`` or the gapped merge, a DATA
value overwritten — through a node, a shard's view or the forest is
seen by all three with no invalidation.  (Which is why nothing derived
from the slots is cached on a view: it would go stale unnoticed.  A
range's key order lives on the index, which makes every write.)  Only
*structural* changes — a conflict child created, a subtree rebuilt, a
hot subtree flattened, a flattened leaf re-segmented — stale the
compiled mapping; the index drops its view and recompiles lazily, and a
forest over the dropped view refuses to sweep until its owner builds a
new one.  Every such change is made by
:class:`~repro.indexes.lipp.index.LippIndex`, which drops the view as
it makes it; ``StaleFlatError`` is the safety net for structural edits
that bypass it (tests performing direct tree surgery must call
``invalidate_flat``).  The net is checked on the links a sweep
follows: a CHILD slot on some key's path that the view never mapped
makes the sweep refuse, before it writes anything.  A slot that became
CHILD off every probed path is not seen, and needs not be — no probed
key's answer depends on it.

**Differences that cannot wrap.**  ``key - pivot`` is taken in int64
only when one per-batch min/max test against the pivots' range shows it
cannot overflow; otherwise in uint64 magnitude
(:func:`~repro.core.linear_model.exact_delta`), which is bit-equal to
the Python-int difference the scalar walk takes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...core.csv_algorithm import RecordedRebuilds
from ...core.linear_model import delta_may_wrap, exact_delta
from ..base import alloc_batch_outputs, group_runs
from .node import (
    NO_CHILD,
    SLOT_CHILD,
    SLOT_DATA,
    SLOT_EMPTY,
    LippNode,
    lay_out,
    materialize,
    model_coefficients,
)

__all__ = ["FlatLipp", "StaleFlatError"]

#: ``slot_child`` encoding: ``>= 0`` is a node id, ``NO_CHILD`` marks a
#: non-CHILD slot, and ``<= FLAT_LEAF_BASE`` encodes flattened-leaf
#: index ``FLAT_LEAF_BASE - value``.
FLAT_LEAF_BASE = -2

#: Share of a tree's node / slot / leaf count a forest leaves unused
#: after it, for the tree to grow into.  A merge of a tenth of a shard's
#: keys adds 8-13 % to its nodes and 6-7 % to its slots (osm, alpha
#: 0.1), so a quarter holds two merges between rebuilds; in a process
#: whose heap has been through a build the slack is resident memory
#: (osm 40k, K = 4: 0.9 MB at a quarter), which is why it is not more.
#: It is not less either: without regions every ``replace_shard``
#: re-concatenates the whole forest, which peaks at +3.9 MB under
#: tracemalloc against +0.7 MB for an in-region replacement (a merge
#: itself peaks near 2.9 MB) and read about 5.7 % more server RSS on a
#: durable mixed read/write run.
REGION_SLACK = 0.25

_NODE_ARRAYS = (
    ("node_level", np.int64),
    ("node_a", np.float64),
    ("node_b", np.float64),
    ("node_c", np.float64),
    ("node_pivot", np.int64),
    ("node_last", np.float64),
)
_SLOT_ARRAYS = (("slot_type", np.uint8), ("slot_keys", np.int64), ("slot_values", np.int64))


class StaleFlatError(RuntimeError):
    """The compiled flat view no longer matches the node tree: a sweep
    followed a CHILD slot the view has no child for.

    Raised when the walk finds one, before any output is written, so
    callers can invalidate, recompile and retry the sweep.
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
        "node_last",
        "node_subtree_keys",
        "node_virtual_slots",
        "slot_start",
        "slot_type",
        "slot_keys",
        "slot_values",
        "slot_child",
        "roots",
        "pivot_min",
        "pivot_max",
        "regions",
        "tree_sizes",
    )

    def __init__(self) -> None:
        #: The node objects by id — empty for a built view until
        #: :meth:`materialize` (and always for a forest).
        self.nodes: list[LippNode] = []
        self.leaves: list = []
        #: None until the slot buffers exist (see :meth:`walk`).
        self.slot_type: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        keys: np.ndarray,
        values: np.ndarray,
        slot_factor: float,
        record: RecordedRebuilds | None = None,
    ) -> "FlatLipp":
        """The view of the tree a LIPP build lays *keys* out into
        (:func:`~repro.indexes.lipp.node.lay_out`, with CSV's *record*
        if given), straight from the layout's arrays: no node object is
        made until :meth:`materialize`."""
        tree = lay_out(keys, values, 1, slot_factor, record=record)[0]
        flat = cls()
        for name, array in zip(tree._fields, tree):
            setattr(flat, name, array)
        flat.node_last = (np.diff(flat.slot_start) - 1).astype(np.float64)
        flat.pivot_min, flat.pivot_max = int(flat.node_pivot.min()), int(flat.node_pivot.max())
        return flat

    def materialize(self) -> LippNode:
        """The root of this view's node tree, made from the arrays on
        the first call (:func:`~repro.indexes.lipp.node.materialize`:
        the nodes' slot arrays are views into this view's buffers) and
        published by one assignment of :attr:`nodes`."""
        if not self.nodes:
            self.nodes = materialize(self)
        return self.nodes[0]

    # ------------------------------------------------------------------
    # Compilation (of a tree a structural edit changed)
    # ------------------------------------------------------------------
    @classmethod
    def compile(cls, root: LippNode) -> "FlatLipp":
        """Flatten the tree under *root* (BFS), sharing slot buffers.

        Raises :class:`IndexStateError` on a node model that is
        neither linear nor quadratic (the two forms the coefficient
        arrays can hold).
        """
        flat = cls.walk(root)
        flat._adopt_slots(*(np.concatenate(parts) for parts in flat._slot_parts()))
        return flat

    @classmethod
    def walk(cls, root: LippNode) -> "FlatLipp":
        """:meth:`compile` short of its last step: everything but the
        slot buffers, which are left for a forest to allocate
        (:meth:`concat` fills them straight from the nodes, so the
        tree's slots are never held twice)."""
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
        coefficients: list[tuple[float, float, float]] = []
        pivot: list[int] = []
        subtree_keys: list[int] = []
        virtual: list[int] = []
        # BFS: children are appended strictly after their parents, so
        # node ids are level-ordered and each level is contiguous.
        for head, node in enumerate(nodes):
            coefficients.append(model_coefficients(node.model))
            pivot.append(node.model.pivot)
            level.append(node.level)
            subtree_keys.append(node.n_subtree_keys)
            virtual.append(node.virtual_slots)
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
        flat.node_a, flat.node_b, flat.node_c = np.asarray(coefficients, dtype=np.float64).T.copy()
        flat.node_pivot = np.asarray(pivot, dtype=np.int64)
        flat.node_subtree_keys = np.asarray(subtree_keys, dtype=np.int64)
        flat.node_virtual_slots = np.asarray(virtual, dtype=np.int64)
        flat.pivot_min, flat.pivot_max = min(pivot), max(pivot)
        slot_start = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum([node.slot_type.size for node in nodes], out=slot_start[1:])
        flat.slot_start = slot_start
        flat.node_last = (np.diff(slot_start) - 1).astype(np.float64)
        flat.slot_child = np.full(int(slot_start[-1]), NO_CHILD, dtype=np.int32)
        if link_child:
            flat.slot_child[slot_start[link_parent] + link_slot] = link_child
        return flat

    def _slot_parts(self) -> tuple[list, list, list]:
        """What the three slot buffers are concatenated from: the
        buffers themselves, or — not allocated yet — every node's."""
        if self.slot_type is not None:
            return [self.slot_type], [self.slot_keys], [self.slot_values]
        nodes = self.nodes
        return (
            [node.slot_type for node in nodes],
            [node.slot_keys for node in nodes],
            [node.slot_values for node in nodes],
        )

    def _adopt_slots(
        self, slot_type: np.ndarray, slot_keys: np.ndarray, slot_values: np.ndarray
    ) -> None:
        """Make the three arrays — holding this view's slots, node after
        node — its slot buffers, and re-point every node's slot arrays
        at views into them, so in-place slot writes through the node
        API stay visible to the view with no recompile."""
        self.slot_type, self.slot_keys, self.slot_values = slot_type, slot_keys, slot_values
        bounds = self.slot_start.tolist()
        for i, node in enumerate(self.nodes):
            base, end = bounds[i], bounds[i + 1]
            node.slot_type = slot_type[base:end]
            node.slot_keys = slot_keys[base:end]
            node.slot_values = slot_values[base:end]

    @classmethod
    def concat(cls, views: Sequence["FlatLipp | None"]) -> "FlatLipp":
        """One view over several trees — a forest.

        Tree ``i`` keeps its node order inside a contiguous *region* of
        node, slot and leaf ids, so ``slot_child`` is the trees' own
        mapping with every id shifted by its region's base; ``roots[i]``
        is where tree ``i`` starts (-1 for a ``None`` entry: an empty
        shard).  The forest allocates the slot buffers and every input
        view — compiled, or only :meth:`walk`-ed — and through it every
        node is re-pointed at its slice of them: ``compile``'s contract
        one level up, so there is still one copy of the slots, and a
        write through a node, a tree's view or the forest is seen by
        all three.  The views' node arrays become slices of the
        forest's too.

        Every region ends in :data:`REGION_SLACK` of unused ids, so a
        tree that a merge has grown is re-placed where it was
        (:meth:`replace_tree`) without a second copy of every other
        tree.
        """
        forest = cls()
        forest.regions = []
        ends = [0, 0, 0]
        for view in views:
            # One node id more than the tree has nodes: ``slot_start``
            # holds each region's closing offset there.
            sizes = (0, 0, 0) if view is None else (
                view.n_nodes + 1, view.total_slots, len(view.leaves)
            )
            region = []
            for which, size in enumerate(sizes):
                region += [ends[which], size + int(size * REGION_SLACK)]
                ends[which] += region[-1]
            forest.regions.append(tuple(region))
        n_nodes, n_slots, n_leaves = ends
        #: Node id of each tree's root (where its sweep starts).
        forest.roots = np.asarray(
            [-1 if view is None else region[0] for view, region in zip(views, forest.regions)],
            dtype=np.int64,
        )
        forest.leaves = [None] * n_leaves
        # A sweep never reads slack; ``slot_type``'s reads EMPTY so that
        # a scan over every slot finds nothing there.
        for name, dtype in _NODE_ARRAYS + (("slot_start", np.int64),):
            setattr(forest, name, np.empty(n_nodes, dtype=dtype))
        for name, dtype in _SLOT_ARRAYS + (("slot_child", np.int32),):
            setattr(forest, name, np.empty(n_slots, dtype=dtype))
        forest.slot_type.fill(SLOT_EMPTY)
        forest.tree_sizes = [0] * len(views)
        # The overflow guard's range only has to *cover* the pivots.
        forest.pivot_min = forest.pivot_max = 0
        for tree, view in enumerate(views):
            if view is not None:
                forest._place(tree, view)
        return forest

    def replace_tree(self, tree: int, view: "FlatLipp") -> bool:
        """Put *view* where tree *tree* of this forest was — False, and
        nothing done, when it has outgrown the region's slack (the
        caller then builds a new forest)."""
        __, node_cap, __, slot_cap, __, leaf_cap = self.regions[tree]
        fits = (
            view.n_nodes + 1 <= node_cap
            and view.total_slots <= slot_cap
            and len(view.leaves) <= leaf_cap
        )
        if fits:
            self._place(tree, view)
        return fits

    def _place(self, tree: int, view: "FlatLipp") -> None:
        """Write *view* into region *tree* and re-point it there."""
        node_off, __, slot_off, __, leaf_off, leaf_cap = self.regions[tree]
        n, n_slots, n_leaves = view.n_nodes, view.total_slots, len(view.leaves)
        old_slots = self.tree_sizes[tree]
        self.tree_sizes[tree] = n_slots
        self.pivot_min = min(self.pivot_min, view.pivot_min)
        self.pivot_max = max(self.pivot_max, view.pivot_max)
        self.leaves[leaf_off : leaf_off + leaf_cap] = view.leaves + [None] * (leaf_cap - n_leaves)
        for name, __ in _NODE_ARRAYS:
            mine = getattr(self, name)[node_off : node_off + n]
            mine[:] = getattr(view, name)
            setattr(view, name, mine)
        self.slot_start[node_off : node_off + n + 1] = view.slot_start + slot_off
        child = self.slot_child[slot_off : slot_off + n_slots]
        child[:] = view.slot_child
        child[child >= 0] += node_off
        child[child <= FLAT_LEAF_BASE] -= leaf_off
        # Each buffer is gathered before it is written: re-placed, the
        # tree's surviving nodes are views into this very region.  A
        # view that holds its buffers is copied as it is (an assignment
        # between overlapping arrays is buffered by numpy).
        mine = []
        for (name, __), parts in zip(_SLOT_ARRAYS, view._slot_parts()):
            mine.append(getattr(self, name)[slot_off : slot_off + n_slots])
            mine[-1][:] = parts[0] if len(parts) == 1 else np.concatenate(parts)
        del parts  # or the old per-node arrays outlive their replacements
        self.slot_type[slot_off + n_slots : slot_off + old_slots] = SLOT_EMPTY
        view._adopt_slots(*mine)

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of (non-leaf) LIPP nodes in the view (a forest's
        slack included)."""
        return int(self.node_level.size)

    @property
    def total_slots(self) -> int:
        """Total slot count across every compiled node (a forest's
        slack included)."""
        return int(self.slot_child.size)

    def _predict_slots(self, ids: np.ndarray, keys: np.ndarray, exact: bool) -> np.ndarray:
        """Global slot index each node model assigns to its query key.

        *exact* is the batch's :func:`delta_may_wrap` verdict: only a
        batch holding a key further than int64 from some pivot pays
        for the difference that cannot wrap."""
        pivots = self.node_pivot[ids]
        if exact:
            t = exact_delta(keys, pivots)
        else:
            t = np.subtract(keys, pivots, out=pivots).astype(np.float64)
        pos = self.node_a[ids]
        pos *= t
        pos += self.node_b[ids]
        pos *= t
        pos += self.node_c[ids]
        # Clamp in float space before rounding: identical result to the
        # scalar round-then-clamp (bounds are integers and rounding is
        # monotone) without int64 overflow on wild extrapolations.
        np.maximum(pos, 0.0, out=pos)
        np.minimum(pos, self.node_last[ids], out=pos)
        gslot = np.rint(pos, out=pos).astype(np.int64)
        gslot += self.slot_start[ids]
        return gslot

    # ------------------------------------------------------------------
    # Batched traversal
    # ------------------------------------------------------------------
    def _descend_many(
        self,
        q: np.ndarray,
        start: np.ndarray | None = None,
        visit_counts: np.ndarray | None = None,
        end_node: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The one per-level walk of a query batch down the view:
        ``(end, depth)``, parallel to *q*.

        ``end[i]`` is the global slot where query ``i``'s descent ends
        — a DATA or EMPTY slot, or the CHILD slot linking the flattened
        leaf it enters — and ``depth[i]`` the level of the node holding
        that slot (1 at the root).  Each level predicts every active
        query's slot, notes it, and routes the rows on a CHILD slot
        down; nothing is resolved on the way, so a level costs the same
        few array operations whatever it ends.

        *start* holds each query's first node id (default: every query
        starts at node 0), with *visit_counts* (a cell per node) every
        node on a query's path is credited one visit, and *end_node*
        (parallel to *q*) receives the node id holding ``end``.  Raises
        :class:`StaleFlatError` when a followed CHILD slot has no
        mapped child — the view no longer matches the tree.
        """
        exact = delta_may_wrap(q, self.pivot_min, self.pivot_max)
        end = np.empty(q.size, dtype=np.int64)
        depth = np.empty(q.size, dtype=np.int64)
        cur = np.zeros(q.size, dtype=np.int64) if start is None else start
        active = slice(None)  # the first level holds every query
        level = 1
        while True:
            if visit_counts is not None:
                visit_counts += np.bincount(cur, minlength=self.n_nodes)
            gslot = self._predict_slots(cur, q[active], exact)
            end[active] = gslot
            depth[active] = level
            if end_node is not None:
                end_node[active] = cur
            child = (self.slot_type[gslot] == SLOT_CHILD).nonzero()[0]
            if not child.size:
                return end, depth
            nxt = self.slot_child[gslot[child]]
            active = child if level == 1 else active[child]
            if nxt.min() < 0:
                if (nxt == NO_CHILD).any():
                    raise StaleFlatError("flat view is stale: a followed CHILD slot is unmapped")
                down = nxt >= 0  # the rest end at a flattened leaf
                active = active[down]
                if not active.size:
                    return end, depth
                nxt = nxt[down]
            cur = nxt
            level += 1

    def lookup_many_into(
        self,
        q: np.ndarray,
        found: np.ndarray,
        values: np.ndarray,
        levels: np.ndarray,
        steps: np.ndarray,
        track: bool = False,
        tree: np.ndarray | None = None,
    ) -> None:
        """Vectorised multi-level lookup sweep, scattered into outputs.

        All four output arrays parallel *q*.  On a forest, ``tree[i]``
        names the tree query ``i`` descends from ``roots[tree[i]]``,
        depth 1 there; a query into an absent tree stays the miss at
        level 0 the outputs start as.  Hits are resolved once, after
        the walk, at the slots :meth:`_descend_many` ends on, and the
        keys entering a flattened leaf are answered by it, a group per
        leaf.  A stale view raises before anything is written.  With
        *track*, every node and flattened leaf on each query's path has
        its ``access_count`` credited afterwards — the aggregate
        equivalent of SALI's per-query ``record_path``, and on the
        objects, where ``AccessTracker`` reads it when picking
        flattening targets.
        """
        start = None
        if tree is not None:
            start = self.roots[tree]
            rows = (start >= 0).nonzero()[0]
            if rows.size < q.size:
                outs = alloc_batch_outputs(rows.size)
                self.lookup_many_into(q[rows], *outs, track, tree[rows])
                for out, got in zip((found, values, levels, steps), outs):
                    out[rows] = got
                return
        visit_counts = np.zeros(self.n_nodes, dtype=np.int64) if track else None
        end, depth = self._descend_many(q, start, visit_counts)
        kinds = self.slot_type[end]
        hit = (kinds == SLOT_DATA) & (self.slot_keys[end] == q)
        found[:] = hit
        values[hit] = self.slot_values[end[hit]]
        l_ids = np.empty(0, dtype=np.int32)
        if self.leaves:  # the keys entering a flattened leaf, a group per leaf
            into_leaf = (kinds == SLOT_CHILD).nonzero()[0]
            depth[into_leaf] += 1
            l_ids = FLAT_LEAF_BASE - self.slot_child[end[into_leaf]]
            for group in group_runs(l_ids):
                sel = into_leaf[group]
                leaf = self.leaves[int(l_ids[group[0]])]
                found[sel], values[sel], steps[sel] = leaf.lookup_batch(q[sel])
        levels[:] = depth
        if track:
            leaf_visits = np.bincount(l_ids, minlength=len(self.leaves))
            for counts, visited in ((visit_counts, self.nodes), (leaf_visits, self.leaves)):
                for i in np.flatnonzero(counts).tolist():
                    visited[i].access_count += int(counts[i])

    def locate(
        self, bkeys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Terminal position of each key: ``(node, gslot, kind, leaf)``.

        :meth:`lookup_many_into`'s walk, but it hands over where each
        key's descent *ends* instead of resolving hits: ``node[i]`` /
        ``gslot[i]`` / ``kind[i]`` identify the terminal node id,
        global slot and slot type, or ``leaf[i]`` (the other three -1)
        the flattened leaf the key routed into, else -1.  This is the
        addressing pass of the in-place gapped bulk merge.
        """
        term_node = np.empty(bkeys.size, dtype=np.int64)
        term_slot, __ = self._descend_many(bkeys, end_node=term_node)
        term_kind = self.slot_type[term_slot].astype(np.int64)
        leaf_of = np.full(bkeys.size, -1, dtype=np.int64)
        into_leaf = term_kind == SLOT_CHILD
        if into_leaf.any():
            leaf_of[into_leaf] = FLAT_LEAF_BASE - self.slot_child[term_slot[into_leaf]]
            for arr in (term_node, term_slot, term_kind):
                arr[into_leaf] = -1
        return term_node, term_slot, term_kind, leaf_of

    # ------------------------------------------------------------------
    # Vectorised structural introspection
    # ------------------------------------------------------------------
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
