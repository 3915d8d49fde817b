"""LIPP index facade over :class:`~repro.indexes.lipp.node.LippNode`.

LIPP (Updatable Learned Index with Precise Positions, [33]) answers a
lookup purely by traversal: each level evaluates one linear model and
lands exactly on a slot.  Its query time is therefore proportional to
the depth of the key — the effect Fig. 1 of the paper measures and CSV
attacks.

There is one traversal per granularity.  Per key, ``insert`` /
``lookup_stats`` share the one walk over the node objects,
:meth:`LippIndex._descend` — SALI's flattened leaves included, so
:class:`~repro.indexes.sali.index.SaliIndex` adds no walk of its own.
Per batch, ``lookup_many`` / ``key_levels``, the sparse
``bulk_insert_many`` merge and the structure reports (``height``,
``size_bytes`` …) run on the flat view (:mod:`~repro.indexes.lipp.flat`),
and ``range_query`` on its DATA slots in key order
(:meth:`LippIndex._key_order`).  The shards of a service are additionally
read through one :class:`~repro.indexes.lipp.forest.LippForest`.

**The build's product is the view.**  :meth:`LippIndex.build` (plain, or
from CSV's record on a reopen) lays the tree out as the flat view's
arrays and holds that view and no node object, so a shard that is only
read, ranged, sized, reported on or snapshotted never has any.  The
first operation that walks nodes — per-key ``insert`` /
``lookup_stats``, ``bulk_insert_many``, ``iter_keys``, CSV's adapter
(through :attr:`LippIndex.root`), SALI's tracked lookups and flattening
— makes them from the view, once (:meth:`LippIndex._materialize`), as
views into its slot buffers.  A structural change drops the view; the
nodes are then the tree, and the view is compiled from them on next use.

Tree surgery is :class:`LippIndex`'s alone.  A rebuilt subtree goes in
through :meth:`LippIndex._replace_subtree` — LIPP's adjustment
(:meth:`LippIndex._adjust`), the bulk merge, a CSV rebuild, SALI's
flattening — and a new child is attached by ``insert`` or the bulk
merge; both drop the flat view themselves, so no other module relinks a
node or calls :meth:`LippIndex.invalidate_flat` (tests that edit a tree
by hand must).
"""

from __future__ import annotations

import time
from typing import Callable, Iterator

import numpy as np

from ..base import (
    KEY_BYTES,
    MODEL_BYTES,
    NODE_HEADER_BYTES,
    OFFSET_BYTES,
    POINTER_BYTES,
    VALUE_BYTES,
    BatchQueryStats,
    LearnedIndex,
    QueryStats,
    _as_batch_kv,
    _as_query_array,
    alloc_batch_outputs,
    dedupe_last_wins,
    group_runs,
    prepare_key_values,
    range_slice,
)
from ...core.csv_algorithm import RecordedRebuilds
from ...obs.metrics import get_registry
from .flat import FlatLipp, StaleFlatError, _leaf_like
from .node import DEFAULT_SLOT_FACTOR, SLOT_CHILD, SLOT_DATA, SLOT_EMPTY, LippNode

__all__ = ["LippIndex"]

#: Bytes per slot: 1 type byte + key + value/pointer union.
SLOT_BYTES = 1 + KEY_BYTES + VALUE_BYTES


class LippIndex(LearnedIndex):
    """Updatable precise-position learned index."""

    name = "lipp"

    def __init__(self, tree: LippNode | FlatLipp, slot_factor: float):
        """*tree* is the root node, or the view a build wrote, whose
        nodes are made on the first operation that walks them."""
        built = isinstance(tree, FlatLipp)
        #: At least one of the two is set: None here means "not made
        #: yet" (the view is the tree), None there "dropped by a
        #: structural edit" (the nodes are, until it is compiled again).
        self._root: LippNode | None = None if built else tree
        self._slot_factor = slot_factor
        self._flat: FlatLipp | None = tree if built else None
        #: ``(view, sorted DATA keys, slot positions)``: :meth:`_key_order`.
        self._order: tuple[FlatLipp, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        keys,
        values=None,
        slot_factor: float = DEFAULT_SLOT_FACTOR,
        record: RecordedRebuilds | None = None,
    ) -> "LippIndex":
        """Bulk-load from sorted unique *keys*; with *record* (CSV's
        rebuilds on an index of them), straight into the smoothed tree."""
        arr, vals = prepare_key_values(keys, values)
        view = FlatLipp.build(arr, vals, slot_factor, record)
        if record is not None:
            record.finish()
        return cls(view, slot_factor)

    @property
    def root(self) -> LippNode:
        return self._materialize()

    def _materialize(self) -> LippNode:
        """The root node.  A built index makes its nodes here, once, from
        its view (:meth:`FlatLipp.materialize`), and publishes them by
        one assignment; until then no node object exists."""
        if self._root is None:
            self._root = self._flat.materialize()
        return self._root

    @property
    def slot_factor(self) -> float:
        return self._slot_factor

    # ------------------------------------------------------------------
    # Flat-view cache management
    # ------------------------------------------------------------------
    def invalidate_flat(self) -> None:
        """Drop the flat view after a structural change.

        Every structural change goes through this class
        (:meth:`_replace_subtree`, a conflict child, a bulk-attached
        child) and ends here; in-place slot writes need not, because
        the node slot arrays are views into the flat buffers.  Tests
        performing direct tree surgery must call it themselves.
        """
        self._materialize()  # the nodes are the tree once the view is gone
        self._flat = None
        self._order = None

    def _flat_view(self, slots: bool = True) -> FlatLipp:
        """The flat view: the build's, or — after a structural change
        dropped it — compiled from the nodes on first use (``slots``
        False: short of the slot buffers — for the forest about to
        allocate them, see :meth:`FlatLipp.walk`)."""
        if self._flat is None:
            start = time.perf_counter()
            self._flat = (FlatLipp.compile if slots else FlatLipp.walk)(self._root)
            reg = get_registry()
            if reg.enabled:
                reg.counter("flat_compiles_total", family=self.name).inc()
                reg.histogram("flat_compile_seconds", family=self.name).observe(
                    time.perf_counter() - start
                )
        return self._flat

    def _on_fresh_flat(self, sweep: Callable[..., None], *args) -> None:
        """Run ``sweep(flat, *args)``, recompiling once if *flat* is stale.

        A sweep raises :class:`StaleFlatError` when it follows a CHILD
        slot the view never mapped, and before it writes anything, so
        a structural edit that bypassed :meth:`invalidate_flat` costs
        one recompile-and-retry — on the first sweep whose keys pass
        through it.
        """
        try:
            sweep(self._flat_view(), *args)
        except StaleFlatError:
            reg = get_registry()
            if reg.enabled:
                reg.counter("flat_stale_retries_total", family=self.name).inc()
            self.invalidate_flat()
            sweep(self._flat_view(), *args)

    # ------------------------------------------------------------------
    def _descend(self, key: int) -> tuple[LippNode, int | None, list]:
        """The one scalar walk: ``(node, slot, path)``.

        *path* holds the nodes from the root down to *node*, where the
        descent of *key* ends: at the *slot* (DATA or EMPTY) its model
        addresses terminally, or — *slot* None — at a flattened leaf
        (SALI), which searches its own dense arrays.
        """
        node = self.root
        path = [node]
        while not _leaf_like(node):
            slot = node.slot_of(key)
            if int(node.slot_type[slot]) != SLOT_CHILD:
                return node, slot, path
            node = node.children[slot]
            path.append(node)
        return node, None, path

    def _scalar_lookup(self, key: int) -> tuple[QueryStats, list]:
        """:meth:`lookup_stats` of an int *key*, and the path walked."""
        node, slot, path = self._descend(key)
        if slot is None:
            found, value, steps = node.lookup(key)
        else:
            found = int(node.slot_type[slot]) == SLOT_DATA and int(node.slot_keys[slot]) == key
            value, steps = (int(node.slot_values[slot]) if found else None), 0
        stats = QueryStats(key=key, found=found, value=value, levels=len(path), search_steps=steps)
        return stats, path

    def lookup_stats(self, key: int) -> QueryStats:
        return self._scalar_lookup(int(key))[0]

    def lookup_many(self, keys) -> BatchQueryStats:
        """Batched precise-position lookups.

        The whole batch is answered by :meth:`FlatLipp.
        lookup_many_into` — a few vectorised gathers per tree level
        over the surviving query frontier.  LIPP lookups have no
        search component, so ``search_steps`` is all zeros, exactly as
        in :meth:`lookup_stats`.
        """
        return self._lookup_batch(keys, track=False)

    def _lookup_batch(self, keys, track: bool) -> BatchQueryStats:
        """:meth:`lookup_many`; with *track*, every node on each
        query's path has its ``access_count`` credited
        (aggregate-equivalent to SALI's per-query ``record_path``)."""
        q = _as_query_array(keys)
        found, values, levels, steps = alloc_batch_outputs(q.size)
        if track:
            self._materialize()  # the credit goes to the node objects
        if q.size:
            self._on_fresh_flat(FlatLipp.lookup_many_into, q, found, values, levels, steps, track)
        return BatchQueryStats(keys=q, found=found, values=values, levels=levels, search_steps=steps)

    def insert(self, key: int, value: int) -> None:
        """Insert one entry; conflicts may create a child or trigger a
        subtree rebuild.

        LIPP's *adjustment* strategy: each node counts the insert
        conflicts it has absorbed since it was (re)built, and once the
        count passes a fraction of its subtree size the whole subtree
        is rebuilt from its sorted keys.  This keeps conflict chains
        from degenerating into linked lists.
        """
        key = int(key)
        value = int(value)
        node, slot, path = self._descend(key)
        if slot is None:  # a flattened leaf takes the key into its arrays
            before = node.n_subtree_keys
            node.insert(key, value)
            self._credit_chain(node.parent, node.n_subtree_keys - before)
            return
        kind = int(node.slot_type[slot])
        if kind == SLOT_DATA and int(node.slot_keys[slot]) == key:
            node.slot_values[slot] = value
            return
        for visited in path:
            visited.n_subtree_keys += 1
        if kind == SLOT_EMPTY:
            self._order = None
            node.slot_type[slot] = SLOT_DATA
            node.slot_keys[slot] = key
            node.slot_values[slot] = value
            return
        node.make_conflict_child(slot, key, value, self._slot_factor)
        self.invalidate_flat()
        for visited in path:
            visited.conflicts_since_build += 1
        for visited in path:  # the shallowest over-conflicted node
            if self._adjust(visited):
                break

    #: The adjustment threshold's two terms (see :meth:`_adjust`).
    REBUILD_MIN_CONFLICTS = 8
    REBUILD_RATIO = 0.1

    # ------------------------------------------------------------------
    # Bulk ingest
    # ------------------------------------------------------------------
    #: A batch of at least this fraction of the stored keys triggers a
    #: sorted-merge rebuild of the whole tree (flatten + merge +
    #: ``from_keys``) instead of the in-place gapped merge.
    BULK_REBUILD_FRACTION = 0.25
    #: Trees at or below this many keys are always rebuilt — the
    #: flatten/merge is a handful of array ops.
    BULK_SMALL_SUBTREE = 64

    def bulk_insert_many(self, keys, values=None) -> None:
        """Bulk ingest: in-place gapped merge of the touched slots.

        A batch *dense* relative to the whole index (or landing in a
        tiny tree) takes the wholesale sorted-merge rebuild (flatten +
        merge + one :meth:`LippNode.from_keys`), which amortises model
        fits across the batch.  Sparse batches instead run the
        ALEX-style gapped merge over the flat view: one vectorised
        :meth:`FlatLipp.locate` sweep addresses every key's terminal
        slot, overwrites and unique-gap fills are pure array scatters
        through the shared slot buffers, and only genuinely conflicting
        slots (several keys colliding, or colliding with an existing
        entry) build conflict children — no subtree is rebuilt unless
        its accumulated conflicts cross LIPP's adjustment threshold.
        Rebuilt subtrees start with fresh conflict counters, so the
        physical layout may differ from the per-key loop's; lookup
        contents are identical.
        """
        arr, vals = _as_batch_kv(keys, values)
        if arr.size == 0:
            return
        reg = get_registry()
        if reg.enabled:
            reg.counter("bulk_insert_batches_total", family=self.name).inc()
            reg.counter("bulk_insert_keys_total", family=self.name).inc(int(arr.size))
        bkeys, bvals = dedupe_last_wins(arr, vals)
        root = self.root
        n = root.n_subtree_keys
        if n > self.BULK_SMALL_SUBTREE and bkeys.size < self.BULK_REBUILD_FRACTION * n:
            self._on_fresh_flat(self._gapped_merge, bkeys, bvals)
            if reg.enabled:
                reg.counter("bulk_gapped_merges_total", family=self.name).inc()
            return
        old_keys, old_vals = root.collect_arrays()
        merged_k, merged_v = dedupe_last_wins(
            np.concatenate([old_keys, bkeys]), np.concatenate([old_vals, bvals])
        )
        self._replace_subtree(
            root, LippNode.from_keys(merged_k, merged_v, root.level, self._slot_factor)
        )
        if reg.enabled:
            reg.counter("bulk_rebuilds_total", family=self.name).inc()

    def _gapped_merge(self, flat: FlatLipp, bkeys: np.ndarray, bvals: np.ndarray) -> None:
        """Merge a sorted unique batch through the compiled flat view.

        One :meth:`FlatLipp.locate` sweep addresses every key; the
        merge itself is three vectorised scatters (value overwrites,
        unique-gap fills, per-leaf group merges) plus a Python loop
        over only the *conflicting* slots.  Subtree-key counts are
        propagated up the (short) parent chains of the touched
        terminal nodes, and nodes whose conflict counters cross the
        adjustment threshold are rebuilt shallow-first afterwards.
        """
        term_node, term_slot, term_kind, leaf_of = flat.locate(bkeys)
        nodes = flat.nodes
        slot_start = flat.slot_start
        net_by_node = np.zeros(len(nodes), dtype=np.int64)
        conflict_nodes: dict[int, LippNode] = {}

        # Flattened leaves (SALI): one merge + re-segmentation per
        # touched leaf.
        l_rows = np.nonzero(leaf_of >= 0)[0]
        if l_rows.size:
            l_rows = l_rows[np.argsort(leaf_of[l_rows], kind="stable")]
            l_ids = leaf_of[l_rows]
            for group in group_runs(l_ids):
                sel = l_rows[group]
                leaf_id = int(l_ids[group[0]])
                leaf = flat.leaves[leaf_id]
                old_k, old_v = leaf.collect_arrays()
                merged_k, merged_v = dedupe_last_wins(
                    np.concatenate([old_k, bkeys[sel]]),
                    np.concatenate([old_v, bvals[sel]]),
                )
                self._replace_subtree(
                    leaf, type(leaf)(merged_k, merged_v, leaf.level, leaf.epsilon)
                )
                net = int(merged_k.size) - int(old_k.size)
                if net:
                    self._credit_chain(leaf.parent, net)

        # DATA terminals: a slot whose single key matches the stored
        # key is a pure value overwrite through the shared buffers;
        # anything else is a conflict group merged into a child.
        d_rows = np.nonzero(term_kind == SLOT_DATA)[0]
        if d_rows.size:
            d_slots = term_slot[d_rows]
            match = flat.slot_keys[d_slots] == bkeys[d_rows]
            uniq, inv, counts = np.unique(d_slots, return_inverse=True, return_counts=True)
            matches_per_slot = np.bincount(inv, weights=match.astype(np.float64))
            pure = (counts == 1) & (matches_per_slot.astype(np.int64) == 1)
            ov_rows = d_rows[pure[inv]]
            if ov_rows.size:
                flat.slot_values[term_slot[ov_rows]] = bvals[ov_rows]
            for gslot in uniq[~pure].tolist():
                sel = d_rows[d_slots == gslot]
                node_id = int(term_node[sel[0]])
                node = nodes[node_id]
                local = int(gslot - slot_start[node_id])
                merged_k, merged_v = dedupe_last_wins(
                    np.concatenate(
                        [np.asarray([int(flat.slot_keys[gslot])], dtype=np.int64), bkeys[sel]]
                    ),
                    np.concatenate(
                        [np.asarray([int(flat.slot_values[gslot])], dtype=np.int64), bvals[sel]]
                    ),
                )
                node.slot_keys[local] = 0
                node.slot_values[local] = 0
                self._attach_bulk_child(node, local, merged_k, merged_v)
                node.conflicts_since_build += 1
                conflict_nodes[id(node)] = node
                net_by_node[node_id] += int(merged_k.size) - 1

        # EMPTY terminals: unique landings fill their gap with one
        # scatter; colliding groups become a fresh child.
        e_rows = np.nonzero(term_kind == SLOT_EMPTY)[0]
        if e_rows.size:
            e_slots = term_slot[e_rows]
            uniq, first, counts = np.unique(e_slots, return_index=True, return_counts=True)
            single = counts == 1
            if np.any(single):
                self._order = None
                rows = e_rows[first[single]]
                slots = uniq[single]
                flat.slot_type[slots] = SLOT_DATA
                flat.slot_keys[slots] = bkeys[rows]
                flat.slot_values[slots] = bvals[rows]
                np.add.at(net_by_node, term_node[rows], 1)
            for gslot in uniq[~single].tolist():
                sel = e_rows[e_slots == gslot]
                node_id = int(term_node[sel[0]])
                node = nodes[node_id]
                local = int(gslot - slot_start[node_id])
                self._attach_bulk_child(node, local, bkeys[sel], bvals[sel])
                net_by_node[node_id] += int(sel.size)

        for node_id in np.nonzero(net_by_node)[0].tolist():
            self._credit_chain(nodes[node_id], int(net_by_node[node_id]))

        # LIPP's adjustment, batch-style: rebuild any node whose
        # accumulated conflicts crossed the threshold, shallow-first.
        # A rebuilt ancestor subsumes its descendants: their parent
        # chains no longer reach the root.
        for node in sorted(conflict_nodes.values(), key=lambda nd: nd.level):
            top = node
            while top.parent is not None:
                top = top.parent
            if top is self._root:
                self._adjust(node)

    @staticmethod
    def _credit_chain(node: LippNode | None, net: int) -> None:
        """Add *net* subtree keys to *node* and every ancestor."""
        while node is not None:
            node.n_subtree_keys += net
            node = node.parent

    def _attach_bulk_child(
        self, node: LippNode, slot: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Build a subtree from a sorted run and install it at *slot*."""
        child = LippNode.from_keys(keys, values, node.level + 1, self._slot_factor)
        child.parent = node
        child.parent_slot = slot
        node.slot_type[slot] = SLOT_CHILD
        node.children[slot] = child
        self.invalidate_flat()

    def _adjust(self, node: LippNode) -> bool:
        """LIPP's adjustment: rebuild *node*'s subtree from its sorted
        keys once the insert conflicts it has absorbed since it was
        built reach ``max(REBUILD_MIN_CONFLICTS, REBUILD_RATIO *
        subtree size)``.  True if it was rebuilt."""
        threshold = max(self.REBUILD_MIN_CONFLICTS, self.REBUILD_RATIO * node.n_subtree_keys)
        if node.conflicts_since_build < threshold:
            return False
        keys, values = node.collect_arrays()
        self._replace_subtree(
            node, LippNode.from_keys(keys, values, node.level, self._slot_factor)
        )
        return True

    def _replace_subtree(self, old, new) -> None:
        """Put *new* where *old* is: under *old*'s parent, or as the
        root.  The one place a subtree is swapped for another."""
        parent = old.parent
        new.parent = parent
        new.parent_slot = old.parent_slot
        if parent is None:
            self._root = new
        else:
            parent.children[old.parent_slot] = new
        self.invalidate_flat()

    # ------------------------------------------------------------------
    @property
    def n_keys(self) -> int:
        # The view is read first: a view dropped since had its nodes made.
        flat, root = self._flat, self._root
        return int(flat.node_subtree_keys[0]) if root is None else root.n_subtree_keys

    def height(self) -> int:
        return self._flat_view().height()

    def node_count(self) -> int:
        flat = self._flat_view()
        return flat.n_nodes + len(flat.leaves)

    def size_bytes(self) -> int:
        """Resident bytes of the flat representation.

        Per node: header, slot arrays (type/key/value), the model
        coefficients (:data:`~repro.indexes.base.MODEL_BYTES`) and its
        entry in the CSR slot-offset array
        (:data:`~repro.indexes.base.OFFSET_BYTES`); per CHILD slot one
        pointer.  A range's key order (:meth:`_key_order`, 16 bytes
        per key) is a read cache and is not counted.
        """
        flat = self._flat_view()
        total = flat.n_nodes * (NODE_HEADER_BYTES + MODEL_BYTES + OFFSET_BYTES)
        total += flat.total_slots * SLOT_BYTES
        total += flat.child_slot_count() * POINTER_BYTES
        return total

    def key_levels(self, keys) -> np.ndarray:
        # Untracked: a level snapshot never credits SALI's tracker.
        return self._stored_levels(self._lookup_batch(keys, track=False))

    def iter_keys(self) -> Iterator[int]:
        """Every stored key in ascending order: a walk of the node tree,
        independent of the flat view the range path reads."""
        for key, __ in self.root.iter_entries():
            yield key

    # ------------------------------------------------------------------
    # Structure reports used by the evaluation harness
    # ------------------------------------------------------------------
    def _key_order(self) -> tuple[FlatLipp, np.ndarray, np.ndarray]:
        """``(view, keys, positions)``: the view's DATA slots in key order,
        by one mask and one stable argsort, published whole by one
        assignment (so racing readers are harmless).  Values are read live
        through the positions, which a forest's re-pointing keeps, so an
        overwrite needs no drop; :meth:`invalidate_flat` and the gap fills
        of ``insert`` and the gapped merge do, and an older view's is rebuilt."""
        flat = self._flat_view()
        order = self._order
        if order is None or order[0] is not flat:
            data = np.flatnonzero(flat.slot_type == SLOT_DATA)
            data = data[np.argsort(flat.slot_keys[data], kind="stable")]
            keys = flat.slot_keys[data]
            keys.flags.writeable = False
            self._order = order = (flat, keys, data)
        return order

    def range_query(self, low: int, high: int) -> tuple[np.ndarray, np.ndarray]:
        """The stored keys in ``[low, high]`` and their values, as two
        int64 arrays: two ``searchsorted`` calls over :meth:`_key_order`,
        a key slice and a value gather, so a warm range costs the keys it
        returns (SALI's flattened leaves add a slice each, then a sort)."""
        flat, keys, positions = self._key_order()
        sl = range_slice(keys, low, high)
        key_parts, value_parts = [keys[sl]], [flat.slot_values[positions[sl]]]
        if not flat.leaves:
            return key_parts[0], value_parts[0]
        for leaf in flat.leaves:
            sl = range_slice(leaf.keys, low, high)
            key_parts.append(leaf.keys[sl])
            value_parts.append(leaf.values[sl])
        return dedupe_last_wins(np.concatenate(key_parts), np.concatenate(value_parts))

    def node_levels(self) -> list[int]:
        """Level of every node (for the node-reduction metric), in
        unspecified order; consumers aggregate."""
        return self._flat_view().node_levels()

    def empty_slot_fraction(self) -> float:
        """Share of EMPTY slots over all slots (gap availability).

        Flattened leaves (SALI) store dense sorted arrays, so their
        entries count as fully occupied slots in the denominator.
        """
        empty, total = self._flat_view().empty_and_total_slots()
        return empty / total if total else 0.0
