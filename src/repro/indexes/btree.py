"""B+-tree baseline.

The classical structure learned indexes are benchmarked against
(Section 6.1 notes ALEX/LIPP/SALI all outperform it).  Leaves hold
``(key, value)`` runs and are chained; inner nodes hold separator keys.
Lookup cost: one level per node on the root-to-leaf path plus a binary
search inside each visited node.
"""

from __future__ import annotations

import bisect
from typing import Iterator

import numpy as np

from ..core.exceptions import IndexStateError
from .base import (
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
)

__all__ = ["BPlusTree"]

DEFAULT_ORDER = 64


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: list[int] = []
        self.values: list[int] = []
        self.next: "_Leaf | None" = None


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: list[int] = []          # separator keys
        self.children: list[object] = []   # len(keys) + 1 children


class BPlusTree(LearnedIndex):
    """An in-memory B+-tree with configurable fan-out *order*."""

    name = "btree"

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 4:
            raise IndexStateError("order must be >= 4")
        self._order = order
        self._root: object = _Leaf()
        self._height = 1
        self._n = 0

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, keys, values=None, order: int = DEFAULT_ORDER) -> "BPlusTree":
        arr, vals = prepare_key_values(keys, values)
        tree = cls(order=order)
        tree._bulk_load(arr, vals)
        return tree

    def _bulk_load(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Pack leaves to ~70% fill and build inner levels bottom-up.

        Node-local ``keys``/``values`` stay Python lists (inserts splice
        into them), but they are built from sliced-array ``tolist()``
        conversions rather than per-element comprehensions.
        """
        per_leaf = max(2, int(self._order * 0.7))
        leaves: list[_Leaf] = []
        key_chunks = [keys[start:start + per_leaf] for start in range(0, keys.size, per_leaf)]
        value_chunks = [values[start:start + per_leaf] for start in range(0, values.size, per_leaf)]
        for key_chunk, value_chunk in zip(key_chunks, value_chunks):
            leaf = _Leaf()
            leaf.keys = key_chunk.tolist()
            leaf.values = value_chunk.tolist()
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
        if not leaves:
            leaves = [_Leaf()]
        level: list[object] = list(leaves)
        first_keys = [leaf.keys[0] if leaf.keys else 0 for leaf in leaves]
        height = 1
        per_inner = max(2, int(self._order * 0.7))
        while len(level) > 1:
            parents: list[object] = []
            parent_first_keys: list[int] = []
            for start in range(0, len(level), per_inner):
                group = level[start:start + per_inner]
                node = _Inner()
                node.children = list(group)
                node.keys = first_keys[start + 1 : start + len(group)]
                parents.append(node)
                parent_first_keys.append(first_keys[start])
            level = parents
            first_keys = parent_first_keys
            height += 1
        self._root = level[0]
        self._height = height
        self._n = int(keys.size)

    # ------------------------------------------------------------------
    def _descend(self, key: int) -> tuple[_Leaf, int, int]:
        """Walk to the leaf for *key*; returns (leaf, levels, steps)."""
        node = self._root
        levels = 1
        steps = 0
        while isinstance(node, _Inner):
            idx = bisect.bisect_right(node.keys, key)
            steps += max(1, int(np.ceil(np.log2(len(node.keys) + 1))) if node.keys else 1)
            node = node.children[idx]
            levels += 1
        assert isinstance(node, _Leaf)
        return node, levels, steps

    def lookup_stats(self, key: int) -> QueryStats:
        key = int(key)
        leaf, levels, steps = self._descend(key)
        pos = bisect.bisect_left(leaf.keys, key)
        steps += max(1, int(np.ceil(np.log2(len(leaf.keys) + 1))) if leaf.keys else 1)
        if pos < len(leaf.keys) and leaf.keys[pos] == key:
            return QueryStats(key=key, found=True, value=leaf.values[pos], levels=levels, search_steps=steps)
        return QueryStats(key=key, found=False, value=None, levels=levels, search_steps=steps)

    @staticmethod
    def _node_search_steps(n_keys: int) -> int:
        """Binary-search probe charge inside one node."""
        return max(1, int(np.ceil(np.log2(n_keys + 1)))) if n_keys else 1

    def lookup_many(self, keys) -> BatchQueryStats:
        """Batched lookups via one root-to-leaf frontier sweep.

        Queries descend level by level as groups: each visited node
        routes its whole query group with a single ``np.searchsorted``
        over its separator keys, so the per-key Python work collapses
        to one dictionary of (node → query indices) per level.  Step
        and level accounting matches :meth:`lookup_stats` exactly.
        """
        q = _as_query_array(keys)
        m = q.size
        found = np.zeros(m, dtype=bool)
        values = np.zeros(m, dtype=np.int64)
        levels = np.zeros(m, dtype=np.int64)
        steps = np.zeros(m, dtype=np.int64)
        if m == 0:
            return BatchQueryStats(keys=q, found=found, values=values, levels=levels, search_steps=steps)
        frontier: list[tuple[object, np.ndarray, int]] = [(self._root, np.arange(m), 1)]
        while frontier:
            node, idx, depth = frontier.pop()
            if isinstance(node, _Inner):
                node_keys = np.asarray(node.keys, dtype=np.int64)
                steps[idx] += self._node_search_steps(len(node.keys))
                child_idx = np.searchsorted(node_keys, q[idx], side="right")
                for group in group_runs(child_idx):
                    child = node.children[int(child_idx[group[0]])]
                    frontier.append((child, idx[group], depth + 1))
                continue
            assert isinstance(node, _Leaf)
            levels[idx] = depth
            steps[idx] += self._node_search_steps(len(node.keys))
            leaf_keys = np.asarray(node.keys, dtype=np.int64)
            pos = np.searchsorted(leaf_keys, q[idx], side="left")
            in_leaf = pos < leaf_keys.size
            hit = np.zeros(idx.size, dtype=bool)
            hit[in_leaf] = leaf_keys[pos[in_leaf]] == q[idx][in_leaf]
            hit_idx = idx[hit]
            found[hit_idx] = True
            if hit_idx.size:
                leaf_values = np.asarray(node.values, dtype=np.int64)
                values[hit_idx] = leaf_values[pos[hit]]
        return BatchQueryStats(keys=q, found=found, values=values, levels=levels, search_steps=steps)

    def _harvest_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Current contents as sorted parallel arrays (leaf-chain scan)."""
        node = self._root
        while isinstance(node, _Inner):
            node = node.children[0]
        assert isinstance(node, _Leaf)
        key_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        leaf: _Leaf | None = node
        while leaf is not None:
            if leaf.keys:
                key_parts.append(np.asarray(leaf.keys, dtype=np.int64))
                val_parts.append(np.asarray(leaf.values, dtype=np.int64))
            leaf = leaf.next
        if not key_parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(key_parts), np.concatenate(val_parts)

    #: Batches smaller than ``n_keys / BULK_LOOP_DIVISOR`` take the
    #: per-key loop: the merged-run rebuild is O(n + b) regardless of
    #: batch size, so a rebuild only wins once b is a sizeable share
    #: of n (crossover measured around b ~ n/6; /8 leaves margin).
    BULK_LOOP_DIVISOR = 8

    def bulk_insert_many(self, keys, values=None) -> None:
        """Bulk ingest by re-slicing the merged sorted run.

        The leaf chain already holds the stored pairs as sorted runs;
        one concatenation + stable last-wins dedupe (batch entries
        after stored ones, so batch values overwrite) yields the merged
        run, which :meth:`_bulk_load` re-packs into fresh ~70%-full
        leaves and bottom-up inner levels.  O(n + b) array work per
        batch instead of b root-to-leaf descents with splits.  Small
        batches (relative to the stored key count) fall back to the
        per-key loop, which beats a full-tree rebuild there.
        """
        arr, vals = _as_batch_kv(keys, values)
        if arr.size == 0:
            return
        if arr.size * self.BULK_LOOP_DIVISOR < self._n:
            for key, value in zip(arr.tolist(), vals.tolist()):
                self.insert(key, value)
            return
        old_keys, old_vals = self._harvest_arrays()
        merged_keys, merged_vals = dedupe_last_wins(
            np.concatenate([old_keys, arr]), np.concatenate([old_vals, vals])
        )
        self._bulk_load(merged_keys, merged_vals)

    # ------------------------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        key = int(key)
        split = self._insert_into(self._root, key, int(value))
        if split is not None:
            sep, right = split
            new_root = _Inner()
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1

    def _insert_into(self, node: object, key: int, value: int):
        """Recursive insert; returns (separator, new_right_sibling) on split."""
        if isinstance(node, _Leaf):
            pos = bisect.bisect_left(node.keys, key)
            if pos < len(node.keys) and node.keys[pos] == key:
                node.values[pos] = value
                return None
            node.keys.insert(pos, key)
            node.values.insert(pos, value)
            self._n += 1
            if len(node.keys) > self._order:
                mid = len(node.keys) // 2
                right = _Leaf()
                right.keys = node.keys[mid:]
                right.values = node.values[mid:]
                right.next = node.next
                node.keys = node.keys[:mid]
                node.values = node.values[:mid]
                node.next = right
                return right.keys[0], right
            return None
        assert isinstance(node, _Inner)
        idx = bisect.bisect_right(node.keys, key)
        split = self._insert_into(node.children[idx], key, value)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        if len(node.children) > self._order:
            mid = len(node.keys) // 2
            right_inner = _Inner()
            right_inner.keys = node.keys[mid + 1:]
            right_inner.children = node.children[mid + 1:]
            sep_up = node.keys[mid]
            node.keys = node.keys[:mid]
            node.children = node.children[:mid + 1]
            return sep_up, right_inner
        return None

    # ------------------------------------------------------------------
    def range_query(self, low: int, high: int) -> tuple[np.ndarray, np.ndarray]:
        """The keys in ``[low, high]`` and their values, as int64 arrays."""
        node: _Leaf | None = self._descend(int(low))[0]
        keys: list[int] = []
        values: list[int] = []
        while node is not None:
            lo = bisect.bisect_left(node.keys, low)
            hi = bisect.bisect_right(node.keys, high)
            keys += node.keys[lo:hi]
            values += node.values[lo:hi]
            if hi < len(node.keys):
                break
            node = node.next
        return np.asarray(keys, dtype=np.int64), np.asarray(values, dtype=np.int64)

    @property
    def n_keys(self) -> int:
        return self._n

    def height(self) -> int:
        return self._height

    def node_count(self) -> int:
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if isinstance(node, _Inner):
                stack.extend(node.children)
        return count

    def size_bytes(self) -> int:
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Inner):
                total += NODE_HEADER_BYTES + len(node.keys) * KEY_BYTES
                total += len(node.children) * POINTER_BYTES
                stack.extend(node.children)
            else:
                assert isinstance(node, _Leaf)
                total += NODE_HEADER_BYTES + len(node.keys) * (KEY_BYTES + VALUE_BYTES)
                total += POINTER_BYTES
        return total

    def iter_keys(self) -> Iterator[int]:
        node = self._root
        while isinstance(node, _Inner):
            node = node.children[0]
        assert isinstance(node, _Leaf)
        leaf: _Leaf | None = node
        while leaf is not None:
            yield from leaf.keys
            leaf = leaf.next
