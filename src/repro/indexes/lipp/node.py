"""LIPP node: a precise-position gapped slot array (Wu et al. [33]).

Every node owns ``m`` slots addressed *directly* by its linear model:
``slot = clamp(round(model(key)))``.  A slot is EMPTY, holds one DATA
entry, or points to a CHILD node built recursively from the keys that
collided there.  Because the model prediction *is* the position, LIPP
has no in-node search component — lookups cost traversal only, which
is why the paper uses the pure loss value as LIPP's CSV cost condition
(Section 5.1).

Model choice at build time follows LIPP's FMCD idea in simplified
form: an OLS fit over the keys' ranks, scaled to the slot count, with
a min-max (endpoint interpolation) fallback whenever the OLS model
would dump every key into a single slot (which would not terminate).

**Frontier build.**  LIPP builds top-down by conflict groups, and every
conflict group is a contiguous run of the one sorted key array.  A
level of the tree is therefore a list of segments over that array, and
:func:`lay_out` builds the tree one level per :func:`_layout_level`
call — fit every segment, predict and clamp every key, scatter the keys
that landed alone, hand the colliding runs on as the next level's
segments — instead of one Python call per node (a 10k-key shard has
~2,900 nodes, two thirds of them two-key conflict children, on five
levels).  The tree is the one the per-node build produced, bit for bit;
``tests/indexes/test_lipp_build_parity.py`` keeps that build as its
oracle.

**The build writes arrays, not nodes.**  A level's nodes are numbered
after every node of the level above, which is the breadth-first order
of :class:`~repro.indexes.lipp.flat.FlatLipp`, so :func:`lay_out`'s
product is the flat view's arrays (:class:`LaidOut`): the node table
(level, model coefficients, slot offsets, subtree key counts, virtual
slots), one slot buffer, and ``slot_child`` from each level's CHILD
slots.  An index build keeps them as its view and makes no node object
(:meth:`~repro.indexes.lipp.flat.FlatLipp.build`); the operations that
walk nodes — per-key ``insert`` / ``lookup_stats``, the bulk merge,
``iter_keys``, CSV's adapter, SALI's tracking and flattening — make
them first, once per index, with :func:`materialize`, and a subtree
build (:meth:`LippNode.from_keys`) does so at once.

**Who owns the slots.**  The arrays do: a materialized node's
``slot_type`` / ``slot_keys`` / ``slot_values`` are views into the
slot buffers of the arrays it was made from, and ``FlatLipp.compile``,
which runs only on a tree a structural edit changed, concatenates the
nodes' slots into new buffers and re-points every node at those (see
:mod:`~repro.indexes.lipp.flat`).  Either way a node's slot arrays are
live, writable arrays: an in-place write through the node is never
lost.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from ...core.csv_algorithm import RecordedRebuilds
from ...core.exceptions import IndexStateError
from ...core.linear_model import LinearModel, QuadraticModel
from ..base import WeakParent

__all__ = ["SLOT_EMPTY", "SLOT_DATA", "SLOT_CHILD", "LippNode"]

SLOT_EMPTY = 0
SLOT_DATA = 1
SLOT_CHILD = 2

#: ``slot_child`` of a slot that links no child node.
NO_CHILD = -1

#: Slots allocated per key at build time.  1.0 reproduces the compact
#: allocation of the original LIPP; CSV-rebuilt nodes instead size the
#: array to the smoothed point set, materialising the virtual points
#: as reusable gaps.
DEFAULT_SLOT_FACTOR = 1.0

MIN_SLOTS = 2


#: Key spans from here up are not exact in float64, so a conflict
#: pair that wide takes its slope from Python's exact int division.
_EXACT_FLOAT_SPAN = 1 << 53


class _Level(NamedTuple):
    """One laid-out level: its nodes' models and slots, and what is left."""

    #: Per segment (= per node of this level): the model as the flat
    #: view holds it, ``(a * t + b) * t + c`` with ``t = key - pivot``.
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    pivot: np.ndarray
    #: The level's slot buffer; node ``i`` owns
    #: ``[slot_bounds[i], slot_bounds[i + 1])`` of each array.
    slot_type: np.ndarray
    slot_keys: np.ndarray
    slot_values: np.ndarray
    slot_bounds: np.ndarray
    #: Indexes (into the level's keys) of the keys stored at this level.
    placed: np.ndarray
    #: Mask of the keys that collided; they are the next level's keys,
    #: cut into segments of ``next_counts`` keys, segment ``j`` hanging
    #: off slot ``child_slots[j]`` of this level's buffer.
    unplaced: np.ndarray
    next_counts: np.ndarray
    child_slots: np.ndarray


class LaidOut(NamedTuple):
    """A tree as the arrays of its flat view
    (:class:`~repro.indexes.lipp.flat.FlatLipp` has the same names and
    meanings): nodes in level order, one slot buffer."""

    node_level: np.ndarray
    node_a: np.ndarray
    node_b: np.ndarray
    node_c: np.ndarray
    node_pivot: np.ndarray
    node_subtree_keys: np.ndarray
    node_virtual_slots: np.ndarray
    slot_start: np.ndarray
    slot_type: np.ndarray
    slot_keys: np.ndarray
    slot_values: np.ndarray
    slot_child: np.ndarray


def model_coefficients(model) -> tuple[float, float, float]:
    """``(a, b, c)`` of a node model in the flat view's quadratic form
    (``a = 0`` for a linear model); :class:`IndexStateError` for a model
    that is neither."""
    if isinstance(model, LinearModel):
        return 0.0, model.slope, model.intercept
    if isinstance(model, QuadraticModel):
        return model.a, model.b, model.c
    raise IndexStateError(f"a {type(model).__name__} node model has no flat form")


def _model_of(a: float, b: float, c: float, pivot: int):
    """The node model :func:`model_coefficients` took apart."""
    return LinearModel(b, c, pivot) if a == 0.0 else QuadraticModel(a, b, c, pivot)


def _empty_slots(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(slot_type, slot_keys, slot_values)`` of *m* EMPTY slots."""
    return (
        np.zeros(m, dtype=np.uint8),
        np.zeros(m, dtype=np.int64),
        np.zeros(m, dtype=np.int64),
    )


def _ahead(keys: np.ndarray, first: np.ndarray) -> np.ndarray:
    """``float64(keys - first)`` for keys at or past their segment's
    first key: the difference is never negative, so it is taken in
    uint64, where a span beyond ``2**63`` cannot wrap (and a shorter one
    converts to the same float as the int64 difference did)."""
    return (keys.view(np.uint64) - first.view(np.uint64)).astype(np.float64)


def _fit_segments(
    lk: np.ndarray, starts: np.ndarray, counts: np.ndarray, slots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``fit_linear(segment).scaled((m - 1) / (n - 1))`` of every
    segment at once, as ``(slope, intercept)`` arrays (the pivot is the
    segment's first key).

    Bit-for-bit the per-segment fit: two keys reduce analytically to
    endpoint interpolation; longer segments are stacked by length and
    fitted row-wise with the same reductions ``fit_linear`` uses — a
    pairwise ``mean`` per row, and ``np.dot`` per row (which is what
    ``matmul`` runs for a ``(1, n) @ (n, 1)`` product; ``einsum`` or
    ``(x * x).sum`` accumulate in another order).
    """
    top = slots - 1
    slope = np.zeros(counts.size)
    intercept = np.zeros(counts.size)
    pair = (counts == 2).nonzero()[0]
    if pair.size:
        first = lk[starts[pair]]
        last = lk[starts[pair] + 1]
        span = last.view(np.uint64) - first.view(np.uint64)
        slope[pair] = top[pair] / span.astype(np.float64)
        for i in (span >= _EXACT_FLOAT_SPAN).nonzero()[0].tolist():
            slope[pair[i]] = int(top[pair[i]]) / (int(last[i]) - int(first[i]))
    longer = (counts >= 3).nonzero()[0]
    if longer.size:
        by_length = longer[np.argsort(counts[longer], kind="stable")]
        lengths = counts[by_length]
        cuts = [0, *((lengths[1:] != lengths[:-1]).nonzero()[0] + 1).tolist(), longer.size]
        for group_start, group_end in zip(cuts, cuts[1:]):
            rows = by_length[group_start:group_end]
            length = int(lengths[group_start])
            first = starts[rows]
            t = _ahead(lk[first[:, None] + np.arange(length)], lk[first][:, None])
            # ``mean`` spelled as the sum and division it is (its Python
            # wrapper costs more than the reduction on a short row); the
            # mean of ranks 0..n-1 is (n - 1) / 2 exactly.
            t_mean = np.add.reduce(t, axis=1) / length
            y_mean = (length - 1) / 2
            tc = t - t_mean[:, None]
            yc = np.arange(length, dtype=np.float64) - y_mean
            var = (tc[:, None, :] @ tc[:, :, None])[:, 0, 0]
            cov = (tc[:, None, :] @ yc[None, :, None])[:, 0, 0]
            # Equal keys cannot reach here, but distinct keys beyond
            # 2**53 apart can round to one float: a constant model,
            # which the caller's degenerate-model fallback replaces.
            fitted = np.divide(cov, var, out=np.zeros_like(cov), where=var != 0.0)
            scale = top[rows] / (length - 1)
            slope[rows] = fitted * scale
            intercept[rows] = (y_mean - fitted * t_mean) * scale
    return slope, intercept


def _clamped_slots(raw: np.ndarray, top: np.ndarray) -> np.ndarray:
    """``clip(round(raw), 0, top)`` as int64 slots."""
    return np.minimum(np.maximum(np.rint(raw).astype(np.int64), 0), top)


def _layout_level(
    lk: np.ndarray,
    lv: np.ndarray,
    counts: np.ndarray,
    slots: np.ndarray,
    given: dict[int, LinearModel],
) -> _Level:
    """Lay out every node of one level in one pass.

    *lk* (sorted, with values *lv*) is the level's segments back to
    back; segment ``i``, the next ``counts[i]`` keys, becomes a node of
    ``slots[i]`` slots.  Segment ``i`` in *given* is laid out by that
    caller-chosen model (a CSV rebuild's root); every other segment is
    fitted.  Each key is predicted and clamped, segments whose model
    puts all their keys in one slot fall back to endpoint interpolation
    (first key -> slot 0, last -> slot m-1: two or more distinct slots,
    so the next level's segments are strictly smaller), runs of one key
    are written into the level's slot buffer with one scatter, and
    longer runs are returned as the next level's segments.
    """
    n_segs = int(counts.size)
    starts = np.cumsum(counts) - counts
    seg_of = np.repeat(np.arange(n_segs), counts)
    top = slots - 1
    fitted = np.ones(n_segs, dtype=bool)
    fitted[list(given)] = False
    fit = fitted.nonzero()[0]
    pivot = lk[starts]
    slope = np.zeros(n_segs)
    intercept = np.zeros(n_segs)
    slope[fit], intercept[fit] = _fit_segments(lk, starts[fit], counts[fit], slots[fit])
    raw = slope[seg_of] * _ahead(lk, pivot[seg_of]) + intercept[seg_of]
    for i, model in given.items():
        segment = slice(starts[i], starts[i] + counts[i])
        raw[segment] = model.predict_array(lk[segment])
    predicted = _clamped_slots(raw, top[seg_of])
    # A fitted pair sits at its node's two ends by construction.
    pair = ((counts == 2) & fitted).nonzero()[0]
    predicted[starts[pair]] = 0
    predicted[starts[pair] + 1] = top[pair]
    same_slot = np.minimum.reduceat(predicted, starts) == np.maximum.reduceat(predicted, starts)
    degenerate = (same_slot & (counts >= 2)).nonzero()[0]
    if degenerate.size:
        first = lk[starts[degenerate]]
        last = lk[starts[degenerate] + counts[degenerate] - 1]
        span = (last.view(np.uint64) - first.view(np.uint64)).astype(np.float64)
        slope[degenerate] = top[degenerate] / span
        intercept[degenerate] = 0.0
        pivot[degenerate] = first
        redo = np.zeros(n_segs, dtype=bool)
        redo[degenerate] = fitted[degenerate] = True
        redo = redo[seg_of].nonzero()[0]
        seg = seg_of[redo]
        raw = slope[seg] * _ahead(lk[redo], pivot[seg]) + intercept[seg]
        predicted[redo] = _clamped_slots(raw, top[seg])
    a = np.zeros(n_segs)
    for i in (~fitted).nonzero()[0].tolist():
        a[i], slope[i], intercept[i] = model_coefficients(given[i])
        pivot[i] = given[i].pivot
    # Consecutive keys sharing a slot form a run (segments own disjoint
    # slot ranges, so a run never spans two of them).
    bounds = np.concatenate(([0], np.cumsum(slots)))
    gslot = bounds[seg_of] + predicted
    run_edge = np.concatenate(([0], (gslot[1:] != gslot[:-1]).nonzero()[0] + 1, [lk.size]))
    run_start = run_edge[:-1]
    run_len = run_edge[1:] - run_start
    single = run_len == 1
    slot_type, slot_keys, slot_values = _empty_slots(int(bounds[-1]))
    placed = run_start[single]
    at = gslot[placed]
    slot_type[at] = SLOT_DATA
    slot_keys[at] = lk[placed]
    slot_values[at] = lv[placed]
    conflict = run_start[~single]
    child_slots = gslot[conflict]
    slot_type[child_slots] = SLOT_CHILD
    return _Level(
        a=a,
        b=slope,
        c=intercept,
        pivot=pivot,
        slot_type=slot_type,
        slot_keys=slot_keys,
        slot_values=slot_values,
        slot_bounds=bounds,
        placed=placed,
        unplaced=np.repeat(~single, run_len),
        next_counts=run_len[~single],
        child_slots=child_slots,
    )


class LippNode:
    """One LIPP node (slot array + model + children)."""

    parent = WeakParent()

    __slots__ = (
        "__weakref__",
        "model",
        "slot_type",
        "slot_keys",
        "slot_values",
        "children",
        "level",
        "_parent",
        "parent_slot",
        "n_subtree_keys",
        "virtual_slots",
        "conflicts_since_build",
        "access_count",
    )

    def __init__(
        self,
        model: LinearModel,
        level: int,
        slot_type: np.ndarray,
        slot_keys: np.ndarray,
        slot_values: np.ndarray,
        n_subtree_keys: int,
    ):
        self.model = model
        #: Three parallel slot arrays.  They are *views*: into the
        #: per-level buffer of the build that created the node, and,
        #: once the tree is compiled, into the flat view's buffers.
        self.slot_type = slot_type
        self.slot_keys = slot_keys
        self.slot_values = slot_values
        self.children: dict[int, "LippNode"] = {}
        self.level = level
        self._parent = None  # ``parent`` is None (see WeakParent)
        self.parent_slot: int | None = None
        self.n_subtree_keys = n_subtree_keys
        #: Slots that exist because of CSV virtual points (gap budget).
        self.virtual_slots = 0
        #: Insert-time conflicts accumulated since this node was built;
        #: drives LIPP's subtree-rebuild adjustment.
        self.conflicts_since_build = 0
        #: Lookup traversals through this node (used by SALI's
        #: probability model; plain LIPP ignores it).
        self.access_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_keys(
        cls,
        keys: np.ndarray,
        values: np.ndarray,
        level: int,
        slot_factor: float = DEFAULT_SLOT_FACTOR,
        m: int | None = None,
        model: LinearModel | None = None,
    ) -> "LippNode":
        """Build a node (and conflict children) from sorted unique keys.

        With *m*/*model* given, the caller controls the root layout —
        this is how CSV rebuilds install the smoothed model over an
        array sized to the smoothed point set.
        """
        if model is None and keys.size == 2:
            # A lone conflict pair (the child every colliding per-key
            # ``insert`` makes): the layout is known without a fit —
            # first key -> slot 0, last -> slot m-1 — so skip the level
            # pass.  It lays a pair out identically.
            if m is None:
                m = max(MIN_SLOTS, math.ceil(2 * slot_factor))
            k0 = int(keys[0])
            slot_type, slot_keys, slot_values = _empty_slots(m)
            slot_type[0] = slot_type[m - 1] = SLOT_DATA
            slot_keys[0] = k0
            slot_keys[m - 1] = keys[1]
            slot_values[0] = values[0]
            slot_values[m - 1] = values[1]
            pair_model = LinearModel((m - 1) / (int(keys[1]) - k0), 0.0, k0)
            return cls(pair_model, level, slot_type, slot_keys, slot_values, 2)
        return cls.from_keys_leveled(keys, values, level, slot_factor, m, model)[0]

    @classmethod
    def from_keys_leveled(
        cls,
        keys: np.ndarray,
        values: np.ndarray,
        level: int,
        slot_factor: float = DEFAULT_SLOT_FACTOR,
        m: int | None = None,
        model: LinearModel | None = None,
    ) -> tuple["LippNode", np.ndarray]:
        """:meth:`from_keys`, plus the level each key is stored at
        (parallel to *keys*): :func:`lay_out`'s arrays, made into nodes
        (:func:`materialize`)."""
        tree, key_level = lay_out(keys, values, level, slot_factor, m, model)
        return materialize(tree)[0], key_level

    @property
    def m(self) -> int:
        """Slot count of this node."""
        return int(self.slot_type.size)

    @property
    def has_subtree(self) -> bool:
        return bool(self.children)

    # ------------------------------------------------------------------
    # Queries / updates (single-node step; traversal drives recursion)
    # ------------------------------------------------------------------
    def slot_of(self, key: int) -> int:
        """The precise slot the model assigns to *key*."""
        return self.model.predict_clamped(key, self.m)

    def make_conflict_child(
        self, slot: int, key: int, value: int, slot_factor: float = DEFAULT_SLOT_FACTOR
    ) -> "LippNode":
        """Turn a DATA *slot* into a CHILD holding both entries."""
        pair = sorted([(int(self.slot_keys[slot]), int(self.slot_values[slot])), (key, value)])
        child_keys = np.asarray([p[0] for p in pair], dtype=np.int64)
        child_vals = np.asarray([p[1] for p in pair], dtype=np.int64)
        child = LippNode.from_keys(child_keys, child_vals, self.level + 1, slot_factor)
        child.parent = self
        child.parent_slot = slot
        self.slot_type[slot] = SLOT_CHILD
        self.slot_keys[slot] = 0
        self.slot_values[slot] = 0
        self.children[slot] = child
        return child

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterator[tuple[int, int]]:
        """Yield (key, value) pairs of the subtree in ascending order."""
        for slot in range(self.m):
            kind = int(self.slot_type[slot])
            if kind == SLOT_DATA:
                yield int(self.slot_keys[slot]), int(self.slot_values[slot])
            elif kind == SLOT_CHILD:
                yield from self.children[slot].iter_entries()

    def collect_leveled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Subtree keys, values and the level each entry is stored at,
        as parallel arrays in ascending key order.

        Vectorised flatten: every node contributes its DATA slots with
        one masked gather (non-``LippNode`` leaves — SALI's flattened
        subtrees — contribute their dense arrays), and a final argsort
        restores global key order.  Keys are unique across a subtree,
        so sorting the unordered concatenation is exact.  This is the
        primitive the bulk-ingest, subtree-rebuild and CSV paths lean
        on; a per-entry Python walk here would dominate their cost.
        """
        key_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        levels: list[int] = []
        for node in self.walk():
            if isinstance(node, LippNode):
                data = np.nonzero(node.slot_type == SLOT_DATA)[0]
                k, v = node.slot_keys[data], node.slot_values[data]
            else:  # flattened leaf (duck-typed): already dense arrays
                k, v = node.collect_arrays()
            if k.size:
                key_parts.append(k)
                val_parts.append(v)
                levels.append(node.level)
        if not key_parts:
            return tuple(np.empty(0, dtype=np.int64) for __ in range(3))
        keys = np.concatenate(key_parts)
        order = np.argsort(keys, kind="stable")
        per_key = np.repeat(levels, [k.size for k in key_parts])
        return keys[order], np.concatenate(val_parts)[order], per_key[order]

    def collect_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Subtree keys and values as sorted parallel arrays."""
        return self.collect_leveled()[:2]

    def walk(self) -> Iterator["LippNode"]:
        """Yield every node of the subtree (pre-order)."""
        stack: list[LippNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())


def lay_out(
    keys: np.ndarray,
    values: np.ndarray,
    level: int,
    slot_factor: float = DEFAULT_SLOT_FACTOR,
    m: int | None = None,
    model: LinearModel | None = None,
    record: RecordedRebuilds | None = None,
) -> tuple[LaidOut, np.ndarray]:
    """The tree of sorted unique *keys* as its flat view's arrays, and
    the level each key is stored at (parallel to *keys*).

    The tree is built one level at a time.  Every conflict group is a
    contiguous run of the sorted *keys*, so a level is a list of
    segments that :func:`_layout_level` fits, places and splits in one
    numpy pass; the runs it could not place are the next level's
    segments, numbered after every node of this level, so node ids come
    out in level order.  Nothing recurses, so the stack stays flat on
    adversarially deep conflict chains, and the work per level is a
    fixed number of array operations however many nodes it holds.

    With *m* / *model* the caller lays out the root (a CSV rebuild's
    node: its smoothed model over an array sized to the smoothed point
    set).  With *record*, a segment a row of CSV's rebuilds names is
    laid out as that rebuild laid it out (the row's ``m`` slots and
    model, ``m - n`` virtual slots) instead of being fitted.
    """
    n = int(keys.size)
    if m is None:
        m = max(MIN_SLOTS, math.ceil(n * slot_factor))
    if model is None and n <= 1:
        # Zero or one key: constant model (the n == 0 case is the
        # empty-index bulk-load seed; an OLS fit needs two keys).
        model = LinearModel(0.0, 0.0)
    key_level = np.empty(n, dtype=np.int64)
    if n == 0:  # one node of m EMPTY slots
        a, b, c = model_coefficients(model)
        zero = np.zeros(1, dtype=np.int64)
        return LaidOut(
            np.asarray([level]), np.asarray([a]), np.asarray([b]), np.asarray([c]),
            np.asarray([model.pivot]), zero, zero, np.asarray([0, m]),
            *_empty_slots(m), np.full(m, NO_CHILD, dtype=np.int32),
        ), key_level
    #: The frontier: ``lk`` holds the level's segments back to back,
    #: ``counts[i]`` keys each; ``where`` maps ``lk`` back into *keys*.
    lk, lv, where = keys, values, np.arange(n)
    counts = np.asarray([n], dtype=np.int64)
    slots = np.asarray([m], dtype=np.int64)
    given = {} if model is None else {0: model}
    laid: list[_Level] = []
    #: Per level, every node's key count and virtual slots.
    node_keys: list[np.ndarray] = []
    virtual: list[np.ndarray] = []
    while True:
        taken = {} if record is None else record.take(level + len(laid), lk, counts)
        node_keys.append(counts)
        virtual.append(np.zeros(counts.size, dtype=np.int64))
        for i, (segment_m, segment_model) in taken.items():
            slots[i] = segment_m
            given[i] = segment_model
            virtual[-1][i] = segment_m - counts[i]
        laid.append(_layout_level(lk, lv, counts, slots, given))
        key_level[where[laid[-1].placed]] = level + len(laid) - 1
        if not laid[-1].next_counts.size:
            return _joined(laid, level, node_keys, virtual), key_level
        unplaced = laid[-1].unplaced
        lk, lv, where = lk[unplaced], lv[unplaced], where[unplaced]
        counts = laid[-1].next_counts
        slots = np.maximum(MIN_SLOTS, np.ceil(counts * slot_factor).astype(np.int64))
        given = {}


def _joined(
    laid: list[_Level], level: int, node_keys: list[np.ndarray], virtual: list[np.ndarray]
) -> LaidOut:
    """The levels :func:`lay_out` laid, the first at *level*, as one
    tree: node arrays end to end, slot buffers end to end, and each
    level's CHILD slots pointing at the next level's nodes, which are
    numbered after its own."""

    def join(parts: list[np.ndarray]) -> np.ndarray:
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    sizes = [keys.size for keys in node_keys]
    node_off = np.cumsum([0, *sizes]).tolist()
    slot_off = np.cumsum([0, *(int(one.slot_bounds[-1]) for one in laid)]).tolist()
    slot_child = np.full(slot_off[-1], NO_CHILD, dtype=np.int32)
    for k, one in enumerate(laid[:-1]):  # the last level has no children
        slot_child[slot_off[k] + one.child_slots] = np.arange(
            node_off[k + 1], node_off[k + 2], dtype=np.int32
        )
    return LaidOut(
        node_level=np.repeat(np.arange(level, level + len(laid)), sizes),
        node_a=join([one.a for one in laid]),
        node_b=join([one.b for one in laid]),
        node_c=join([one.c for one in laid]),
        node_pivot=join([one.pivot for one in laid]),
        node_subtree_keys=join(node_keys),
        node_virtual_slots=join(virtual),
        slot_start=np.concatenate(
            [one.slot_bounds[:-1] + off for one, off in zip(laid, slot_off)] + [slot_off[-1:]]
        ),
        slot_type=join([one.slot_type for one in laid]),
        slot_keys=join([one.slot_keys for one in laid]),
        slot_values=join([one.slot_values for one in laid]),
        slot_child=slot_child,
    )


def materialize(tree) -> list["LippNode"]:
    """Node objects for a tree held as flat-view arrays (a
    :class:`LaidOut`, or a built :class:`~repro.indexes.lipp.flat.FlatLipp`
    — the same names), in node-id order, the root first.

    Each node's slot arrays are views into *tree*'s slot buffers, so a
    write through a node is a write to the arrays, and the other way
    round; the per-node counts and models are read from the arrays.
    """
    bounds = tree.slot_start.tolist()
    slot_type, slot_keys, slot_values = tree.slot_type, tree.slot_keys, tree.slot_values
    models = map(
        _model_of,
        tree.node_a.tolist(), tree.node_b.tolist(), tree.node_c.tolist(), tree.node_pivot.tolist(),
    )
    nodes = [
        LippNode(model, level, slot_type[lo:hi], slot_keys[lo:hi], slot_values[lo:hi], count)
        for model, level, lo, hi, count in zip(
            models, tree.node_level.tolist(), bounds, bounds[1:], tree.node_subtree_keys.tolist()
        )
    ]
    virtual = tree.node_virtual_slots
    for i in np.flatnonzero(virtual).tolist():
        nodes[i].virtual_slots = int(virtual[i])
    linked = np.flatnonzero(tree.slot_child >= 0)
    if linked.size:
        parent_of = np.searchsorted(tree.slot_start, linked, side="right") - 1
        local = linked - tree.slot_start[parent_of]
        for p, slot, child_id in zip(
            parent_of.tolist(), local.tolist(), tree.slot_child[linked].tolist()
        ):
            parent, child = nodes[p], nodes[child_id]
            child.parent = parent
            child.parent_slot = slot
            parent.children[slot] = child
    return nodes
