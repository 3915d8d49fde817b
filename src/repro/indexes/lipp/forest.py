"""The LIPP/SALI shards of one service, read as a single index.

At wire size a batch lookup costs numpy dispatch x levels x *calls*:
a 256-key request scattered over four shards pays the fixed part of a
flat sweep four times.  :class:`LippForest` concatenates the shards'
compiled views (:meth:`~repro.indexes.lipp.flat.FlatLipp.concat`), so
one ``searchsorted`` on the shard boundaries gives every key its
shard, and one sweep — each key starting at its own shard's root —
answers the batch.  Found / values / levels / steps are bit-identical
to routing every key to its shard: the walk is the same walk, and
``levels`` count from 1 at the shard's root.

The forest is a *read* view and is built eagerly, by the one writer:
a built shard's view is placed as it is (array copies; a built shard
has no node objects to re-point), construction walks only a shard
whose view a structural change dropped, and nothing is compiled or
concatenated on a read.  It shares the slot buffers with
the shards (see :mod:`~repro.indexes.lipp.flat`), so in-place slot
writes — gap fills, value overwrites — need no rebuild; a structural
change drops the shard's own view, which :meth:`LippForest.lookup_many`
notices and refuses (:class:`~repro.indexes.lipp.flat.StaleFlatError`)
until its owner hands the shard back (:meth:`LippForest.replace`, which
recompiles that one shard into its region of the forest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..base import BatchQueryStats, _as_query_array, alloc_batch_outputs
from .flat import FlatLipp, StaleFlatError
from .index import LippIndex

__all__ = ["ForestBatch", "LippForest"]


@dataclass(frozen=True)
class ForestBatch(BatchQueryStats):
    """A forest's answer: the batch stats plus ``shard_ids``, the shard
    each query was routed to (the forest's one ``searchsorted``)."""

    shard_ids: np.ndarray


class LippForest(LippIndex):
    """Batch lookups over *shards* (``None`` = an empty shard), split at
    *boundaries*, in one sweep.

    A :class:`LippIndex` in exactly one respect — its batch read *is*
    :meth:`LippIndex.lookup_many`, the library's one LIPP batch-lookup
    entry point.  It has no root of its own: per-key reads, writes and
    structure reports belong to the shards.
    """

    def __init__(self, shards: Sequence[LippIndex | None], boundaries: np.ndarray):
        self._shards = list(shards)
        self._boundaries = boundaries
        self._views = [
            None if shard is None else shard._flat_view(slots=False) for shard in self._shards
        ]
        self._flat = FlatLipp.concat(self._views)

    def replace(self, shard_no: int, shard: LippIndex) -> bool:
        """Take *shard* as shard *shard_no* from now on.

        Its view is compiled here if a structural change dropped it,
        and written over its predecessor's region of the forest.
        False — the forest is then unusable and its owner builds a new
        one — when the tree has outgrown the region.
        """
        view = shard._flat_view(slots=False)
        if view is not self._views[shard_no] and not self._flat.replace_tree(shard_no, view):
            return False
        self._shards[shard_no] = shard
        self._views[shard_no] = view
        return True

    def _lookup_batch(self, keys, track: bool) -> ForestBatch:
        """One sweep for the whole batch, never tracked: nothing on the
        serving path reads SALI's access statistics, so a SALI shard
        pays for them only through its own ``lookup_many``."""
        for shard, view in zip(self._shards, self._views):
            if shard is not None and shard._flat is not view:
                raise StaleFlatError("a shard changed structure since the forest was built")
        q = _as_query_array(keys)
        shard_ids = np.searchsorted(self._boundaries, q, side="right")
        found, values, levels, steps = alloc_batch_outputs(q.size)
        if q.size:
            self._flat.lookup_many_into(q, found, values, levels, steps, tree=shard_ids)
        return ForestBatch(
            keys=q, found=found, values=values, levels=levels, search_steps=steps,
            shard_ids=shard_ids,
        )
