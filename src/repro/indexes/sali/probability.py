"""Access-probability model for SALI (Ge et al. [9]).

SALI drives its structural adaptations with per-node access
probabilities estimated from the query workload.  We keep the faithful
core: every traversal bumps the counter of each node on the path, and
a node's probability is its share of all recorded traversals.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["AccessTracker"]


class AccessTracker:
    """Aggregates access counts recorded on nodes into probabilities."""

    def __init__(self) -> None:
        self.total_queries = 0

    def record_path(self, path: Iterable) -> None:
        """Credit one query's traversal to every node on *path*."""
        self.total_queries += 1
        for node in path:
            node.access_count += 1

    def probability(self, node) -> float:
        """Estimated probability a query traverses *node*."""
        if self.total_queries == 0:
            return 0.0
        return node.access_count / self.total_queries

    def is_hot(self, node, min_probability: float) -> bool:
        """Whether *node* qualifies as a flattening target."""
        return self.probability(node) >= min_probability
