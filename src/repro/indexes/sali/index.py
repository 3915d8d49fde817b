"""SALI index: LIPP + probability-driven hot-subtree flattening [9].

SALI keeps LIPP's precise-position core (it is "based on LIPP", which
is why the paper reports near-identical CSV behaviour on the two) and
adds workload adaptation: per-node access statistics identify the most
frequently traversed subtrees, which get flattened into PGM-segmented
nodes to cut their traversal depth at the price of an extra search
step (see :mod:`repro.indexes.sali.flatten`).

Everything that walks or edits the tree is LIPP's: the scalar walk
(:meth:`LippIndex._descend` ends at a flattened leaf as it does at a
slot), ``insert``, the untracked ``key_levels``, the bulk merge and the
subtree swap (:meth:`LippIndex._replace_subtree`).  What is SALI's, and here: the
tracker credit on lookups, the choice of subtrees to flatten, and the
flattened leaves' bytes.
"""

from __future__ import annotations

from ...core.csv_algorithm import RecordedRebuilds
from ..base import BatchQueryStats, QueryStats
from ..lipp.flat import FlatLipp
from ..lipp.index import LippIndex
from ..lipp.node import DEFAULT_SLOT_FACTOR, LippNode
from .flatten import DEFAULT_EPSILON, FlattenedNode
from .probability import AccessTracker

__all__ = ["SaliIndex"]


class SaliIndex(LippIndex):
    """Scalable Adaptive Learned Index (reproduction)."""

    name = "sali"

    def __init__(
        self,
        tree: LippNode | FlatLipp,
        slot_factor: float,
        flatten_epsilon: int = DEFAULT_EPSILON,
    ):
        super().__init__(tree, slot_factor)
        self.tracker = AccessTracker()
        self._flatten_epsilon = int(flatten_epsilon)

    @classmethod
    def build(
        cls,
        keys,
        values=None,
        slot_factor: float = DEFAULT_SLOT_FACTOR,
        flatten_epsilon: int = DEFAULT_EPSILON,
        record: RecordedRebuilds | None = None,
    ) -> "SaliIndex":
        """LIPP's build, wrapped: the shard holds the view it wrote and
        no node object until it first tracks, flattens or writes."""
        base = LippIndex.build(keys, values, slot_factor, record)
        return cls(base._flat, slot_factor, flatten_epsilon)

    # ------------------------------------------------------------------
    # Queries: LIPP's, with every node on the path credited
    # ------------------------------------------------------------------
    def lookup_stats(self, key: int) -> QueryStats:
        stats, path = self._scalar_lookup(int(key))
        self.tracker.record_path(path)
        return stats

    def lookup_many(self, keys) -> BatchQueryStats:
        """Batched lookups with workload tracking.

        Routes through LIPP's flat-view sweep with tracking enabled:
        per-level visit counters are accumulated with one ``bincount``
        per level and scattered back onto the nodes' ``access_count``
        (aggregate-equivalent to per-query ``record_path``); flattened
        subtrees answer their groups via
        :meth:`~repro.indexes.sali.flatten.FlattenedNode.lookup_batch`.
        A service's reads do not come through here: its router sweeps
        SALI shards untracked (:class:`~repro.indexes.lipp.forest.LippForest`).
        """
        batch = self._lookup_batch(keys, track=True)
        self.tracker.total_queries += batch.n_queries
        return batch

    # Updates are inherited from LippIndex.  A per-key insert that ends
    # at a flattened leaf goes into its dense arrays; the gapped bulk
    # merge routes batch keys landing in a flattened subtree there too
    # and rebuilds it *as a flattened node* — one re-segmentation per
    # touched flat leaf, preserving SALI's adaptation.

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
        stack: list[LippNode] = [self.root]
        while stack:
            node = stack.pop()
            for child in list(node.children.values()):
                if not isinstance(child, LippNode):
                    continue
                if child.has_subtree and self.tracker.is_hot(child, min_probability):
                    keys, values = child.collect_arrays()
                    self._replace_subtree(
                        child, FlattenedNode(keys, values, child.level, self._flatten_epsilon)
                    )
                    flattened += 1
                else:
                    stack.append(child)
        return flattened

    def flattened_nodes(self) -> list[FlattenedNode]:
        """Every flattened node currently in the structure."""
        return [n for n in self.root.walk() if isinstance(n, FlattenedNode)]

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
