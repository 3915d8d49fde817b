"""ALEX inner node: a linear model routing keys to child pointers.

Each inner node evaluates one linear model to pick a child slot in
O(1); the bulk loader assigns one child per contiguous run of slots
(empty runs get empty data nodes so routing is total).  A min-max
fallback model guards against degenerate fits that would route every
key to one slot (same guard as the LIPP builder).
"""

from __future__ import annotations

from typing import Iterator, Union

import numpy as np

from ...core.linear_model import LinearModel
from ..base import WeakParent
from .data_node import AlexDataNode

__all__ = ["AlexInnerNode", "AlexNode"]

AlexNode = Union["AlexInnerNode", AlexDataNode]


class AlexInnerNode:
    """Routing node with ``fanout`` child pointers."""

    parent = WeakParent()

    __slots__ = ("__weakref__", "model", "children", "level", "_parent", "parent_slot")

    def __init__(self, model: LinearModel, fanout: int, level: int):
        self.model = model
        self.children: list[AlexNode | None] = [None] * fanout
        self.level = level
        self.parent: "AlexInnerNode | None" = None
        self.parent_slot: int | None = None

    @property
    def fanout(self) -> int:
        return len(self.children)

    def child_slot(self, key: int) -> int:
        """Routing slot the model assigns to *key*."""
        return self.model.predict_clamped(key, self.fanout)

    def child_for(self, key: int) -> AlexNode:
        """Child node responsible for *key*."""
        child = self.children[self.child_slot(key)]
        assert child is not None, "bulk loader must populate every slot"
        return child

    def attach(self, slot: int, child: AlexNode) -> None:
        """Install *child* at *slot* and wire the parent pointers."""
        self.children[slot] = child
        child.parent = self
        child.parent_slot = slot

    def iter_unique_children(self) -> Iterator[AlexNode]:
        """Yield each distinct child once (slots may share children)."""
        seen: set[int] = set()
        for child in self.children:
            if child is not None and id(child) not in seen:
                seen.add(id(child))
                yield child

    def walk(self) -> Iterator[AlexNode]:
        """Every node of this subtree (pre-order), self included."""
        stack: list[AlexNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, AlexInnerNode):
                stack.extend(node.iter_unique_children())

    def collect_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted keys/values of the whole subtree."""
        keys_parts: list[np.ndarray] = []
        values_parts: list[np.ndarray] = []
        for child in self.iter_unique_children():
            k, v = child.collect_arrays()
            if k.size:
                keys_parts.append(k)
                values_parts.append(v)
        if not keys_parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        keys = np.concatenate(keys_parts)
        values = np.concatenate(values_parts)
        order = np.argsort(keys, kind="stable")
        return keys[order], values[order]
