"""LIPP — Updatable Learned Index with Precise Positions [33]."""

from .forest import LippForest
from .index import LippIndex
from .node import SLOT_CHILD, SLOT_DATA, SLOT_EMPTY, LippNode

__all__ = ["LippForest", "LippIndex", "LippNode", "SLOT_CHILD", "SLOT_DATA", "SLOT_EMPTY"]
