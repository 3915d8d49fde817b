"""ALEX index: adaptive bulk loading, lookups, inserts with
expand/split, and the structural metrics the evaluation needs.

The bulk loader recurses top-down (Section 2 of the ALEX paper in
simplified form): a partition of keys becomes a data node when it is
small or when its linear fit already yields a cheap expected search;
otherwise an inner node with a model-derived fanout routes into
recursively built children.  Inserts delegate to the gapped data
nodes; a full node either expands in place (refitting its model) or —
beyond a capacity cap — splits downward into a two-way inner node,
which is how ALEX grows new levels under skewed insertion.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ...core.cost_model import expected_search_steps
from ...core.csv_algorithm import RecordedRebuilds
from ...core.exceptions import IndexStateError
from ...core.linear_model import LinearModel, fit_linear
from ...core.loss import fit_and_loss
from ..base import (
    KEY_BYTES,
    NODE_HEADER_BYTES,
    POINTER_BYTES,
    VALUE_BYTES,
    BatchQueryStats,
    LearnedIndex,
    QueryStats,
    _as_batch_kv,
    _as_query_array,
    dedupe_last_wins,
    group_runs,
    prepare_key_values,
    range_slice,
)
from .data_node import AlexDataNode, InsertStatus, TARGET_DENSITY
from .inner_node import AlexInnerNode, AlexNode

__all__ = ["AlexIndex"]

#: Partitions at or below this size always become data nodes.
MIN_PARTITION_FOR_INNER = 128
#: A partition whose refitted model searches in no more than this many
#: expected steps stays a data node even if large (ALEX adaptivity).
MAX_DATA_NODE_SEARCH_STEPS = 3.0
#: Upper bound on data node capacity; a full node at the cap splits
#: downward instead of expanding further.
MAX_DATA_NODE_CAPACITY = 8192
#: Routing fanout bounds for inner nodes.
MIN_FANOUT = 4
MAX_FANOUT = 256

MODEL_BYTES = 16

#: In ``bulk_insert_many``, a touched data node is rebuilt only when
#: its key count is at most this multiple of the group landing in it;
#: beyond that the per-key gapped insert wins (rebuild is O(node),
#: crossover measured around 100x — 64 leaves margin).
BULK_LOOP_NODE_RATIO = 64


def _min_max_model(keys: np.ndarray, fanout: int) -> LinearModel:
    span = float(int(keys[-1]) - int(keys[0]))
    if span <= 0:
        return LinearModel(0.0, 0.0)
    slope = (fanout - 1) / span
    return LinearModel(slope, 0.0, pivot=int(keys[0]))


class AlexIndex(LearnedIndex):
    """Updatable Adaptive Learned indEX."""

    name = "alex"

    def __init__(self, root: AlexNode):
        self._root = root

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, keys, values=None, record: RecordedRebuilds | None = None) -> "AlexIndex":
        """Bulk-load from sorted unique *keys*; with *record* (CSV's
        rebuilds on an index of them), each recorded inner node is
        built as its merged data node."""
        arr, vals = prepare_key_values(keys, values)
        root = cls._build_node(arr, vals, level=1, record=record)
        if record is not None:
            record.finish()
        return cls(root)

    @classmethod
    def _build_node(
        cls, keys: np.ndarray, values: np.ndarray, level: int, record: RecordedRebuilds | None = None
    ) -> AlexNode:
        n = int(keys.size)
        if n <= MIN_PARTITION_FOR_INNER:
            return AlexDataNode.from_sorted(keys, values, level)
        __, loss = fit_and_loss(keys)
        if expected_search_steps(loss, n) <= MAX_DATA_NODE_SEARCH_STEPS:
            return AlexDataNode.from_sorted(keys, values, level)
        recorded = {} if record is None else record.take(level, keys, [n])
        if recorded:
            return AlexDataNode.from_smoothed(keys, values, *recorded[0], level)
        fanout = int(min(MAX_FANOUT, max(MIN_FANOUT, 2 ** int(np.ceil(np.log2(n / 256))))))
        model = fit_linear(keys).scaled(fanout / n)
        assignments = np.clip(
            np.round(model.predict_array(keys)).astype(np.int64), 0, fanout - 1
        )
        if np.all(assignments == assignments[0]):
            model = _min_max_model(keys, fanout)
            assignments = np.clip(
                np.round(model.predict_array(keys)).astype(np.int64), 0, fanout - 1
            )
        node = AlexInnerNode(model, fanout, level)
        boundaries = np.nonzero(np.diff(assignments))[0] + 1
        starts = np.concatenate([[0], boundaries]).astype(np.int64)
        ends = np.concatenate([boundaries, [n]]).astype(np.int64)
        slot_to_range: dict[int, tuple[int, int]] = {}
        for start, end in zip(starts.tolist(), ends.tolist()):
            slot_to_range[int(assignments[start])] = (start, end)
        for slot in range(fanout):
            if slot in slot_to_range:
                start, end = slot_to_range[slot]
                if end - start == n:
                    # Could not partition (all keys one slot even after
                    # the fallback): force a data node to terminate.
                    return AlexDataNode.from_sorted(keys, values, level)
                child = cls._build_node(keys[start:end], values[start:end], level + 1, record)
            else:
                child = AlexDataNode.from_sorted(
                    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), level + 1
                )
            node.attach(slot, child)
        return node

    @property
    def root(self) -> AlexNode:
        return self._root

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _descend(self, key: int) -> tuple[AlexDataNode, int]:
        node = self._root
        levels = 1
        while isinstance(node, AlexInnerNode):
            node = node.child_for(key)
            levels += 1
        assert isinstance(node, AlexDataNode)
        return node, levels

    def lookup_stats(self, key: int) -> QueryStats:
        key = int(key)
        node, levels = self._descend(key)
        found, value, steps = node.lookup(key)
        return QueryStats(key=key, found=found, value=value, levels=levels, search_steps=steps)

    def lookup_many(self, keys) -> BatchQueryStats:
        """Batched lookups via a grouped root-to-leaf frontier sweep.

        Each inner node routes its whole query group with one
        vectorised model evaluation; each data node answers its group
        with :meth:`AlexDataNode.lookup_batch`.  Results are scattered
        back into query order and match :meth:`lookup_stats` exactly.
        """
        q = _as_query_array(keys)
        m = q.size
        found = np.zeros(m, dtype=bool)
        values = np.zeros(m, dtype=np.int64)
        levels = np.zeros(m, dtype=np.int64)
        steps = np.zeros(m, dtype=np.int64)
        if m == 0:
            return BatchQueryStats(keys=q, found=found, values=values, levels=levels, search_steps=steps)
        frontier: list[tuple[AlexNode, np.ndarray, int]] = [(self._root, np.arange(m), 1)]
        while frontier:
            node, idx, depth = frontier.pop()
            if isinstance(node, AlexInnerNode):
                slots = np.clip(
                    np.rint(node.model.predict_array(q[idx])).astype(np.int64),
                    0,
                    node.fanout - 1,
                )
                for group in group_runs(slots):
                    child = node.children[int(slots[group[0]])]
                    assert child is not None, "bulk loader must populate every slot"
                    frontier.append((child, idx[group], depth + 1))
                continue
            assert isinstance(node, AlexDataNode)
            node_found, node_values, node_steps = node.lookup_batch(q[idx])
            found[idx] = node_found
            values[idx] = node_values
            steps[idx] = node_steps
            levels[idx] = depth
        return BatchQueryStats(keys=q, found=found, values=values, levels=levels, search_steps=steps)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        """Insert (or overwrite) one key: a gapped insert into its data
        node, which a full node first expands or splits to make room."""
        key = int(key)
        value = int(value)
        node, __ = self._descend(key)
        status = node.insert(key, value)
        if status is not InsertStatus.FULL:
            return
        if node.capacity < MAX_DATA_NODE_CAPACITY:
            self._expand(node)
        else:
            self._split(node)
        # One structural fix always leaves room for the pending insert.
        node, __ = self._descend(key)
        status = node.insert(key, value)
        if status is InsertStatus.FULL:
            raise IndexStateError("insert failed after node expansion/split")

    def bulk_insert_many(self, keys, values=None) -> None:
        """Bulk ingest: sorted-merge into the touched data nodes.

        The batch descends the inner levels as grouped runs (one
        vectorised model evaluation per visited inner node, exactly
        like :meth:`lookup_many`); each data node that receives keys is
        then rebuilt once from the sorted merge of its stored pairs and
        its batch slice — a single :meth:`AlexDataNode._place` sweep
        per touched node instead of one exponential search + gap shift
        per key.  Nodes whose merged run outgrows a healthy data node
        are re-run through :meth:`_build_node`, which grows an inner
        subtree in place (the bulk equivalent of repeated
        expand/split).
        """
        arr, vals = _as_batch_kv(keys, values)
        if arr.size == 0:
            return
        bkeys, bvals = dedupe_last_wins(arr, vals)
        # Route the whole batch; collect (data node -> index runs).
        targets: dict[int, tuple[AlexDataNode, list[np.ndarray]]] = {}
        frontier: list[tuple[AlexNode, np.ndarray]] = [(self._root, np.arange(bkeys.size))]
        while frontier:
            node, idx = frontier.pop()
            if isinstance(node, AlexInnerNode):
                slots = np.clip(
                    np.rint(node.model.predict_array(bkeys[idx])).astype(np.int64),
                    0,
                    node.fanout - 1,
                )
                for group in group_runs(slots):
                    child = node.children[int(slots[group[0]])]
                    assert child is not None, "bulk loader must populate every slot"
                    frontier.append((child, idx[group]))
                continue
            assert isinstance(node, AlexDataNode)
            targets.setdefault(id(node), (node, []))[1].append(idx)
        for node, idx_parts in targets.values():
            idx = np.sort(np.concatenate(idx_parts)) if len(idx_parts) > 1 else np.sort(idx_parts[0])
            if node.n_keys > BULK_LOOP_NODE_RATIO * idx.size:
                # A tiny group landing in a big data node: the gapped
                # per-key insert (with its expand/split machinery) is
                # cheaper than rebuilding the whole node.
                for key, value in zip(bkeys[idx].tolist(), bvals[idx].tolist()):
                    self.insert(key, value)
                continue
            old_keys, old_vals = node.collect_arrays()
            merged_keys, merged_vals = dedupe_last_wins(
                np.concatenate([old_keys, bkeys[idx]]),
                np.concatenate([old_vals, bvals[idx]]),
            )
            self._replace(node, self._build_node(merged_keys, merged_vals, node.level))

    def _replace(self, old: AlexNode, new: AlexNode) -> None:
        parent = old.parent
        if parent is None:
            self._root = new
            new.parent = None
            new.parent_slot = None
            return
        assert old.parent_slot is not None
        parent.attach(old.parent_slot, new)

    def _expand(self, node: AlexDataNode) -> None:
        """Rebuild at target density, at least doubling the capacity."""
        keys, values = node.collect_arrays()
        fresh = AlexDataNode.from_sorted(
            keys,
            values,
            node.level,
            density=TARGET_DENSITY,
            min_capacity=2 * node.capacity,
        )
        self._replace(node, fresh)

    def _split(self, node: AlexDataNode) -> None:
        """Split downward: the slot gets a 2-way inner routing node."""
        keys, values = node.collect_arrays()
        mid = keys.size // 2
        split_key = int(keys[mid])
        # Threshold model pivoted on the split key: keys < split_key
        # round to slot 0, keys >= split_key round to slot 1.  The
        # slope is large enough that the nearest neighbours (distance
        # >= 1) land clear of the 0.5 rounding boundary.
        inner = AlexInnerNode(LinearModel(0.02, 0.51, pivot=split_key), 2, node.level)
        left = AlexDataNode.from_sorted(keys[:mid], values[:mid], node.level + 1)
        right = AlexDataNode.from_sorted(keys[mid:], values[mid:], node.level + 1)
        assert inner.child_slot(int(keys[mid - 1])) == 0
        assert inner.child_slot(split_key) == 1
        inner.attach(0, left)
        inner.attach(1, right)
        self._replace(node, inner)

    # ------------------------------------------------------------------
    # Structure inspection
    # ------------------------------------------------------------------
    def _walk(self) -> Iterator[AlexNode]:
        if isinstance(self._root, AlexInnerNode):
            yield from self._root.walk()
        else:
            yield self._root

    @property
    def n_keys(self) -> int:
        return sum(
            node.n_keys for node in self._walk() if isinstance(node, AlexDataNode)
        )

    def height(self) -> int:
        return max(node.level for node in self._walk())

    def node_count(self) -> int:
        return sum(1 for __ in self._walk())

    def size_bytes(self) -> int:
        total = 0
        for node in self._walk():
            if isinstance(node, AlexInnerNode):
                total += NODE_HEADER_BYTES + MODEL_BYTES + node.fanout * POINTER_BYTES
            else:
                # keys + values + occupancy bitmap
                total += NODE_HEADER_BYTES + MODEL_BYTES
                total += node.capacity * (KEY_BYTES + VALUE_BYTES) + node.capacity // 8
        return total

    def _data_nodes(self) -> list[AlexDataNode]:
        """The non-empty data nodes in key order: they partition the key
        space, and :meth:`_walk` is unordered."""
        nodes = [node for node in self._walk() if isinstance(node, AlexDataNode) and node.n_keys]
        nodes.sort(key=lambda node: int(node.slot_keys[np.argmax(node.occupied)]))
        return nodes

    def iter_keys(self) -> Iterator[int]:
        """Every stored key in ascending order, data node by data node."""
        for node in self._data_nodes():
            yield from node.collect_arrays()[0].tolist()

    # ------------------------------------------------------------------
    # Reports used by the evaluation harness
    # ------------------------------------------------------------------
    def range_query(self, low: int, high: int) -> tuple[np.ndarray, np.ndarray]:
        """The keys in ``[low, high]`` and their values, as int64 arrays:
        each data node's in-range slice, in key order."""
        key_parts = [np.empty(0, dtype=np.int64)]
        value_parts = [np.empty(0, dtype=np.int64)]
        for node in self._data_nodes():
            keys, values = node.collect_arrays()
            if int(keys[0]) > high:
                break
            sl = range_slice(keys, low, high)
            key_parts.append(keys[sl])
            value_parts.append(values[sl])
        return np.concatenate(key_parts), np.concatenate(value_parts)

    def node_levels(self) -> list[int]:
        """Level of every node (for the node-reduction metric)."""
        return [node.level for node in self._walk()]
