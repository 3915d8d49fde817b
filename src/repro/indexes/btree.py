"""B+-tree baseline.

The classical structure learned indexes are benchmarked against
(Section 6.1 notes ALEX/LIPP/SALI all outperform it).  Leaves hold
``(key, value)`` runs; inner nodes hold separator keys.
Lookup cost: one level per node on the root-to-leaf path plus a binary
search inside each visited node.  Read-only: it is bulk-loaded and
looked up, never written to.
"""

from __future__ import annotations

import bisect

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
    _as_query_array,
    group_runs,
    prepare_key_values,
)

__all__ = ["BPlusTree"]

DEFAULT_ORDER = 64


class _Leaf:
    __slots__ = ("keys", "values")

    def __init__(self) -> None:
        self.keys: list[int] = []
        self.values: list[int] = []


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: list[int] = []          # separator keys
        self.children: list[object] = []   # len(keys) + 1 children


class BPlusTree(LearnedIndex):
    """An in-memory, bulk-loaded B+-tree with configurable fan-out *order*."""

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

        Node-local ``keys``/``values`` are Python lists (what the scalar
        ``bisect`` lookups search), built from sliced-array ``tolist()``
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
                total += POINTER_BYTES  # the sibling link of a B+-tree's leaf chain
        return total
