"""Common interface for every index in the library.

The paper's evaluation decomposes a lookup into (1) *traversal* — the
levels descended to reach the node holding the key — and (2) *leaf-node
search* — the probes needed inside that node because the model's
prediction is inexact.  Every index here therefore reports a
:class:`QueryStats` per lookup, from which the deterministic
cost-model timer (:class:`repro.core.cost_model.CostConstants`)
derives a simulated latency.  This is the substitution for the paper's
wall-clock nanoseconds (see DESIGN.md §3).

Batch query engine
------------------

Read drivers never loop over keys in Python: they call
:meth:`LearnedIndex.lookup_many` and receive a
:class:`BatchQueryStats` — a struct-of-arrays mirror of
:class:`QueryStats` whose aggregation (hit rate, average levels/steps,
simulated nanoseconds) is pure numpy.  Every backend overrides
``lookup_many`` with a vectorised implementation (model predictions,
``searchsorted`` probes and step accounting as array ops); the base
class supplies a per-key fallback with identical semantics, so a new
backend is correct before it is fast.  Batch results are positionally
parallel to the query array and bit-identical to the per-key loop —
``tests/indexes/test_batch_api.py`` asserts exact parity for every
backend.

:class:`LearnedIndex` is what the figures call: build, point
lookups, key levels and the structure reports.  Writes and ranges are
declared where they are implemented, on the three CSV families
(``LippIndex``, which SALI inherits, and ``AlexIndex``): ``insert``
(one key; the per-key protocol Fig. 10 measures), ``bulk_insert_many``
(one batch; what the serving layer's merge and the store's replay
call) and ``range_query``.  The baselines are read-only.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.cost_model import CostConstants
from ..core.exceptions import IndexStateError
from ..core.segment_stats import validate_keys

__all__ = [
    "QueryStats",
    "BatchQueryStats",
    "LearnedIndex",
    "WeakParent",
    "alloc_batch_outputs",
    "dedupe_last_wins",
    "group_runs",
    "prepare_key_values",
    "range_slice",
]

#: Bytes charged per stored key / value / pointer in the size model.
KEY_BYTES = 8
VALUE_BYTES = 8
POINTER_BYTES = 8
NODE_HEADER_BYTES = 32
#: Bytes charged per per-node model (quadratic/linear coefficients +
#: integer pivot: a, b, c, pivot at 8 bytes each).
MODEL_BYTES = 32
#: Bytes charged per node for its entry in a flat layout's CSR-style
#: slot-offset array (LIPP/SALI level-ordered representation).
OFFSET_BYTES = 8


@dataclass(frozen=True)
class QueryStats:
    """Cost breakdown of a single lookup.

    Attributes:
        key: the queried key.
        found: whether the key was present.
        value: the associated value (None on miss).
        levels: nodes traversed from the root inclusive (root hit = 1).
        search_steps: in-node probes beyond the first model-predicted
            slot (0 for precise-position indexes such as LIPP).
    """

    key: int
    found: bool
    value: int | None
    levels: int
    search_steps: int

    def simulated_ns(self, constants: CostConstants | None = None) -> float:
        """Deterministic latency under the cost model (see module doc)."""
        consts = constants or CostConstants()
        return consts.query_ns(self.levels, self.search_steps)


@dataclass(frozen=True)
class BatchQueryStats:
    """Cost breakdown of a lookup batch, as parallel arrays.

    The struct-of-arrays counterpart of :class:`QueryStats`: entry
    ``i`` of every array describes the lookup of ``keys[i]``, in the
    caller's query order.  ``values[i]`` is meaningful only where
    ``found[i]`` is True (misses store 0).
    """

    keys: np.ndarray          # int64, the queried keys
    found: np.ndarray         # bool
    values: np.ndarray        # int64 (0 where not found)
    levels: np.ndarray        # int64, nodes traversed (root hit = 1)
    search_steps: np.ndarray  # int64, in-node probes

    def __post_init__(self) -> None:
        n = self.keys.size
        for name in ("found", "values", "levels", "search_steps"):
            if getattr(self, name).size != n:
                raise IndexStateError(f"BatchQueryStats.{name} must parallel keys")

    @property
    def n_queries(self) -> int:
        return int(self.keys.size)

    def __len__(self) -> int:
        return self.n_queries

    @property
    def hit_rate(self) -> float:
        return float(np.mean(self.found)) if self.keys.size else 0.0

    def simulated_ns(self, constants: CostConstants | None = None) -> np.ndarray:
        """Per-query deterministic latencies under the cost model."""
        consts = constants or CostConstants()
        return consts.query_ns_batch(self.levels, self.search_steps)

    def stat(self, i: int) -> QueryStats:
        """The *i*-th lookup as a scalar :class:`QueryStats`."""
        found = bool(self.found[i])
        return QueryStats(
            key=int(self.keys[i]),
            found=found,
            value=int(self.values[i]) if found else None,
            levels=int(self.levels[i]),
            search_steps=int(self.search_steps[i]),
        )

    @classmethod
    def from_query_stats(cls, stats: Sequence[QueryStats]) -> "BatchQueryStats":
        """Pack scalar lookups into the array form."""
        return cls(
            keys=np.asarray([s.key for s in stats], dtype=np.int64),
            found=np.asarray([s.found for s in stats], dtype=bool),
            values=np.asarray(
                [s.value if s.value is not None else 0 for s in stats], dtype=np.int64
            ),
            levels=np.asarray([s.levels for s in stats], dtype=np.int64),
            search_steps=np.asarray([s.search_steps for s in stats], dtype=np.int64),
        )


def _as_int64(arr: np.ndarray, what: str) -> np.ndarray:
    """*arr* as a contiguous int64 array, never truncated or wrapped.

    An int64 array passes with no pass over its data, and any other
    integer array is widened — a uint64 one after a check that it fits.
    Floats, bools and objects (what a list holding a Python int beyond
    uint64 becomes) raise :class:`IndexStateError`, as does a uint64
    value above the int64 maximum; an empty batch is fine in any dtype.
    """
    if arr.dtype != np.int64 and arr.size:
        if arr.dtype.kind not in "iu":
            raise IndexStateError(f"{what} must be integers, not {arr.dtype}")
        if arr.dtype == np.uint64 and int(arr.max()) > np.iinfo(np.int64).max:
            raise IndexStateError(f"{what} must lie within int64")
    return np.ascontiguousarray(arr, dtype=np.int64)


def _as_query_array(keys: np.ndarray | list) -> np.ndarray:
    """Normalise a query batch to a contiguous int64 array (see
    :func:`_as_int64` for what is refused)."""
    arr = np.asarray(keys)
    if arr.ndim != 1:
        raise IndexStateError("query keys must be one-dimensional")
    return _as_int64(arr, "query keys")


def alloc_batch_outputs(
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Zeroed ``(found, values, levels, search_steps)`` output arrays.

    The scatter targets every vectorised ``lookup_many`` writes into;
    shared so each backend allocates the :class:`BatchQueryStats`
    parallel arrays identically.
    """
    return (
        np.zeros(n, dtype=bool),
        np.zeros(n, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
    )


def _as_batch_kv(
    keys: np.ndarray | list,
    values: np.ndarray | list | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Normalise a write batch to parallel contiguous int64 arrays.

    Values default to the keys; a shape mismatch raises, and so does
    whatever :func:`_as_int64` refuses.  Shared by every batched write
    entry point (indexes, router, service).
    """
    arr = _as_query_array(keys)
    if values is None:
        return arr, arr
    vals = _as_int64(np.asarray(values), "values")
    if vals.shape != arr.shape:
        raise IndexStateError("values must parallel keys")
    return arr, vals


def dedupe_last_wins(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort a key/value run keeping the last occurrence of each key.

    The batch-order last-wins semantics of sequential ``insert`` calls,
    as sorted unique arrays ready for a bulk ``build`` or sorted merge
    — shared by the bulk-ingest paths, the service's memtable and
    merge path, and the store's run files.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_vals = values[order]
    last = np.ones(sorted_keys.size, dtype=bool)
    last[:-1] = sorted_keys[:-1] != sorted_keys[1:]
    return sorted_keys[last], sorted_vals[last]


def group_runs(values: np.ndarray) -> list[np.ndarray]:
    """Index groups of equal entries in *values* (stable within groups).

    The grouped-frontier idiom shared by every tree backend's batch
    routing: one stable argsort splits a slot-assignment array into
    per-slot index runs, each preserving the input order.  Returns an
    empty list for empty input.
    """
    if values.size == 0:
        return []
    order = np.argsort(values, kind="stable")
    run_starts = np.nonzero(np.diff(values[order]))[0] + 1
    return np.split(order, run_starts)


def range_slice(keys: np.ndarray, low: int, high: int) -> slice:
    """The slice of sorted int64 *keys* holding ``low <= key <= high``;
    bounds past int64 are clamped, or ``searchsorted`` compares them as
    floats and sorts ``2**63`` before the key ``2**63 - 1``."""
    low = max(int(low), -(1 << 63))
    high = min(int(high), (1 << 63) - 1)
    if low > high:
        return slice(0, 0)
    lo = np.searchsorted(keys, low, side="left")
    return slice(int(lo), int(np.searchsorted(keys, high, side="right")))


def prepare_key_values(
    keys: np.ndarray | list,
    values: np.ndarray | list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate keys and produce the parallel value array.

    Values default to the keys themselves (the evaluation only needs a
    payload to verify lookups return the right record).
    """
    arr = validate_keys(keys)
    if values is None:
        vals = arr.copy()
    else:
        vals = _as_int64(np.asarray(values), "values")
        if vals.shape != arr.shape:
            raise IndexStateError("values must parallel keys")
    return arr, vals


class LearnedIndex(ABC):
    """Abstract base class for all indexes in :mod:`repro.indexes`.

    Concrete classes implement point lookups with cost accounting
    (writes and ranges live on the CSV families only).  The structural
    inspection hooks (:meth:`height`, :meth:`node_count`,
    :meth:`key_levels`, :meth:`size_bytes`) power the paper's
    promoted-data / node-reduction / storage metrics.
    """

    #: Human-readable index family name, e.g. "lipp".
    name: str = "abstract"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    @abstractmethod
    def build(cls, keys: np.ndarray | list, values: np.ndarray | list | None = None) -> "LearnedIndex":
        """Bulk-load the index from sorted unique *keys*."""

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @abstractmethod
    def lookup_stats(self, key: int) -> QueryStats:
        """Point lookup returning the full cost breakdown."""

    def lookup(self, key: int) -> int | None:
        """Point lookup returning the value, or None if absent."""
        return self.lookup_stats(key).value

    def __contains__(self, key: int) -> bool:
        return self.lookup_stats(int(key)).found

    # ------------------------------------------------------------------
    # Structure inspection
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def n_keys(self) -> int:
        """Number of (real) keys currently stored."""

    @abstractmethod
    def height(self) -> int:
        """Number of levels; a root-only index has height 1."""

    @abstractmethod
    def node_count(self) -> int:
        """Total number of nodes (inner + leaf/data)."""

    @abstractmethod
    def size_bytes(self) -> int:
        """Modelled storage footprint (keys, values, slots, pointers)."""

    def key_level(self, key: int) -> int:
        """Level (root = 1) of the node in which *key* is stored."""
        return int(self.key_levels([key])[0])

    # ------------------------------------------------------------------
    # Batch queries (the workload drivers' entry point)
    # ------------------------------------------------------------------
    def lookup_many(self, keys: np.ndarray | list) -> BatchQueryStats:
        """Batched point lookups with full cost accounting.

        Returns one :class:`BatchQueryStats` positionally parallel to
        *keys*.  This generic implementation loops over
        :meth:`lookup_stats`; every concrete backend overrides it with
        a vectorised version whose results are exactly identical.
        """
        arr = _as_query_array(keys)
        return BatchQueryStats.from_query_stats(
            [self.lookup_stats(int(k)) for k in arr]
        )

    # ------------------------------------------------------------------
    # Convenience batch helpers used by the evaluation harness
    # ------------------------------------------------------------------
    def key_levels(self, keys: np.ndarray | list) -> np.ndarray:
        """Level (root = 1) of the node storing each of *keys*, aligned
        with them: one :meth:`lookup_many`.  Raises
        :class:`IndexStateError` naming the first key not stored."""
        return self._stored_levels(self.lookup_many(keys))

    def _stored_levels(self, batch: BatchQueryStats) -> np.ndarray:
        """*batch*'s levels, once every one of its keys was found."""
        if not batch.found.all():
            key = int(batch.keys[np.argmin(batch.found)])
            raise IndexStateError(f"key {key} is not stored in this {self.name} index")
        return batch.levels

    def verify_against(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Assert every (key, value) pair is retrievable — test helper.

        Runs through the batch engine, so verification itself exercises
        the fast path instead of a per-key Python loop.
        """
        batch = self.lookup_many(np.asarray(keys))
        expected = np.asarray(values, dtype=np.int64)
        bad = ~batch.found | (batch.values != expected)
        if np.any(bad):
            i = int(np.argmax(bad))
            got = int(batch.values[i]) if batch.found[i] else None
            raise IndexStateError(
                f"{self.name}: lookup({int(batch.keys[i])}) returned {got}, "
                f"expected {int(expected[i])}"
            )


class WeakParent:
    """A node's ``parent``, held as a weak reference: the link up and
    the parent's ``children`` entry down form no reference cycle, so a
    dropped tree or subtree is freed by reference count at once, not at
    the cycle collector's next pass.  The owner keeps it in ``_parent``."""

    def __get__(self, node, owner=None):
        if node is None:
            return self
        return None if node._parent is None else node._parent()

    def __set__(self, node, parent) -> None:
        node._parent = None if parent is None else weakref.ref(parent)
