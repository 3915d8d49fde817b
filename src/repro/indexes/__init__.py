"""Index substrates: the learned indexes CSV integrates with (ALEX,
LIPP, SALI) plus classical and learned baselines.

The baselines (B+-tree, PGM, RMI, sorted array) are read-only: the
figures build them and look them up.  Only the three CSV families
take writes and answer ranges, so only they are served.
"""

from typing import Collection

from ..core.exceptions import InvalidKeysError
from .adapters import AlexCsvAdapter, LippCsvAdapter, adapter_for
from .alex import AlexDataNode, AlexIndex, AlexInnerNode
from .base import BatchQueryStats, LearnedIndex, QueryStats
from .btree import BPlusTree
from .lipp import LippIndex, LippNode
from .pgm import PGMIndex, PlaSegment, build_pla_segments
from .rmi import RMIIndex
from .sali import AccessTracker, FlattenedNode, SaliIndex
from .sorted_array import SortedArrayIndex

#: Registry used by the evaluation harness and the examples.
INDEX_FAMILIES = {
    "alex": AlexIndex,
    "lipp": LippIndex,
    "sali": SaliIndex,
    "btree": BPlusTree,
    "pgm": PGMIndex,
    "rmi": RMIIndex,
    "sorted_array": SortedArrayIndex,
}

#: The families CSV integrates with (the paper's competitors): the
#: only ones smoothed, and the only ones served.
CSV_FAMILIES = ("lipp", "sali", "alex")


def family_class(family: str, among: Collection[str] = INDEX_FAMILIES) -> type[LearnedIndex]:
    """The index class named *family*, which must be one of *among*;
    :class:`InvalidKeysError` otherwise."""
    if family not in among:
        raise InvalidKeysError(
            f"index family {family!r} is not one of {', '.join(sorted(among))}"
        )
    return INDEX_FAMILIES[family]


__all__ = [
    "AccessTracker",
    "AlexCsvAdapter",
    "AlexDataNode",
    "AlexIndex",
    "AlexInnerNode",
    "BPlusTree",
    "BatchQueryStats",
    "CSV_FAMILIES",
    "FlattenedNode",
    "INDEX_FAMILIES",
    "LearnedIndex",
    "LippCsvAdapter",
    "LippIndex",
    "LippNode",
    "PGMIndex",
    "PlaSegment",
    "QueryStats",
    "RMIIndex",
    "SaliIndex",
    "SortedArrayIndex",
    "adapter_for",
    "build_pla_segments",
    "family_class",
]
