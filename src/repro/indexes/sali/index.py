"""SALI index: LIPP + probability-driven hot-subtree flattening [9].

SALI keeps LIPP's precise-position core (it is "based on LIPP", which
is why the paper reports near-identical CSV behaviour on the two) and
adds workload adaptation: per-node access statistics identify the most
frequently traversed subtrees, which get flattened into PGM-segmented
nodes to cut their traversal depth at the price of an extra search
step (see :mod:`repro.indexes.sali.flatten`).
"""

from __future__ import annotations

from ...core.exceptions import IndexStateError
from ..base import BatchQueryStats, QueryStats
from ..lipp.index import LippIndex
from ..lipp.node import DEFAULT_SLOT_FACTOR, SLOT_CHILD, SLOT_DATA, LippNode
from .flatten import DEFAULT_EPSILON, FlattenedNode
from .probability import AccessTracker

__all__ = ["SaliIndex"]


class SaliIndex(LippIndex):
    """Scalable Adaptive Learned Index (reproduction)."""

    name = "sali"

    def __init__(
        self,
        root: LippNode,
        slot_factor: float,
        flatten_epsilon: int = DEFAULT_EPSILON,
    ):
        super().__init__(root, slot_factor)
        self.tracker = AccessTracker()
        self._flatten_epsilon = int(flatten_epsilon)

    @classmethod
    def build(
        cls,
        keys,
        values=None,
        slot_factor: float = DEFAULT_SLOT_FACTOR,
        flatten_epsilon: int = DEFAULT_EPSILON,
    ) -> "SaliIndex":
        base = LippIndex.build(keys, values, slot_factor)
        return cls(base.root, slot_factor, flatten_epsilon)

    # ------------------------------------------------------------------
    # Queries (track access statistics; handle flattened children)
    # ------------------------------------------------------------------
    def lookup_stats(self, key: int) -> QueryStats:
        key = int(key)
        path: list = []
        node = self._root
        levels = 1
        while True:
            path.append(node)
            if isinstance(node, FlattenedNode):
                found, value, steps = node.lookup(key)
                self.tracker.record_path(path)
                return QueryStats(key=key, found=found, value=value, levels=levels, search_steps=steps)
            slot = node.slot_of(key)
            kind = int(node.slot_type[slot])
            if kind == SLOT_CHILD:
                node = node.children[slot]
                levels += 1
                continue
            self.tracker.record_path(path)
            if kind == SLOT_DATA and int(node.slot_keys[slot]) == key:
                return QueryStats(
                    key=key, found=True, value=int(node.slot_values[slot]),
                    levels=levels, search_steps=0,
                )
            return QueryStats(key=key, found=False, value=None, levels=levels, search_steps=0)

    def lookup_many(self, keys) -> BatchQueryStats:
        """Batched lookups with workload tracking.

        Routes through LIPP's flat-view sweep with tracking enabled:
        per-level visit counters are accumulated with one ``bincount``
        per level and scattered back onto the nodes' ``access_count``
        (aggregate-equivalent to per-query ``record_path``); flattened
        subtrees answer their groups via
        :meth:`~repro.indexes.sali.flatten.FlattenedNode.lookup_batch`.
        """
        batch = self._lookup_batch(keys, track=True)
        self.tracker.total_queries += batch.n_queries
        return batch

    def key_level(self, key: int) -> int:
        key = int(key)
        node = self._root
        levels = 1
        while True:
            if isinstance(node, FlattenedNode):
                found, __, __steps = node.lookup(key)
                if found:
                    return levels
                raise IndexStateError(f"key {key} is not stored in this SALI index")
            slot = node.slot_of(key)
            kind = int(node.slot_type[slot])
            if kind == SLOT_CHILD:
                node = node.children[slot]
                levels += 1
                continue
            if kind == SLOT_DATA and int(node.slot_keys[slot]) == key:
                return levels
            raise IndexStateError(f"key {key} is not stored in this SALI index")

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        key = int(key)
        value = int(value)
        node = self._root
        path: list[LippNode] = []
        while True:
            if isinstance(node, FlattenedNode):
                before = node.n_subtree_keys
                node.insert(key, value)
                if node.n_subtree_keys > before:
                    for visited in path:
                        visited.n_subtree_keys += 1
                return
            path.append(node)
            slot = node.slot_of(key)
            kind = int(node.slot_type[slot])
            if kind == SLOT_CHILD:
                node = node.children[slot]
                continue
            break
        if kind == SLOT_DATA and int(node.slot_keys[slot]) == key:
            node.slot_values[slot] = value
            return
        for visited in path:
            visited.n_subtree_keys += 1
        if kind == SLOT_DATA:
            node.make_conflict_child(slot, key, value, self._slot_factor)
            self.invalidate_flat()
            for visited in path:
                visited.conflicts_since_build += 1
            self._maybe_rebuild([n for n in path if isinstance(n, LippNode)])
        else:
            node.slot_type[slot] = SLOT_DATA
            node.slot_keys[slot] = key
            node.slot_values[slot] = value

    # Bulk ingest is inherited from LippIndex: the gapped merge routes
    # batch keys landing in a flattened subtree into its dense arrays
    # and rebuilds it *as a flattened node* — one re-segmentation per
    # touched flat leaf, preserving SALI's adaptation instead of
    # per-key `FlattenedNode.insert` rebuilds.

    # ------------------------------------------------------------------
    # SALI's own adaptation: flattening hot subtrees
    # ------------------------------------------------------------------
    def flatten_hot_subtrees(self, min_probability: float = 0.05) -> int:
        """Flatten subtrees whose access probability exceeds the bound.

        Walks top-down; once a subtree is flattened its descendants are
        gone, so nested candidates resolve to the shallowest hot node.
        The root is never flattened (that would degenerate to one big
        PGM node).  Returns the number of subtrees flattened.
        """
        flattened = 0
        stack: list[LippNode] = []
        if isinstance(self._root, LippNode):
            stack.append(self._root)
        while stack:
            node = stack.pop()
            for slot, child in list(node.children.items()):
                if not isinstance(child, LippNode):
                    continue
                if child.has_subtree and self.tracker.is_hot(child, min_probability):
                    keys, values = child.collect_arrays()
                    flat = FlattenedNode(keys, values, child.level, self._flatten_epsilon)
                    flat.parent = node
                    flat.parent_slot = slot
                    node.children[slot] = flat
                    flattened += 1
                else:
                    stack.append(child)
        if flattened:
            self.invalidate_flat()
        return flattened

    def flattened_nodes(self) -> list[FlattenedNode]:
        """Every flattened node currently in the structure."""
        return [n for n in self._root.walk() if isinstance(n, FlattenedNode)]

    # ------------------------------------------------------------------
    # Structure metrics (flattened nodes accounted separately)
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Resident bytes: LIPP's flat accounting + flattened leaves.

        LIPP nodes are charged header + slots + model + CSR offset
        exactly as in :meth:`LippIndex.size_bytes`; flattened leaves
        report their dense arrays and PLA segments through
        :meth:`~repro.indexes.sali.flatten.FlattenedNode.leaf_size_bytes`.
        """
        return super().size_bytes() + sum(
            leaf.leaf_size_bytes() for leaf in self._flat_view().leaves
        )
