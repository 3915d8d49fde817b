"""The key order a LIPP / SALI range reads, against a dict oracle.

:meth:`LippIndex.range_query` answers from the view's DATA slots in key
order — ``(view, sorted keys, slot positions)`` — which the first range
after a change builds (:meth:`LippIndex._key_order`).  Values are read
live through the positions, so a value overwrite needs no drop.  The
key set changes at three sites, and each drops the order:

* ``invalidate_flat`` — every structural change: a conflict child, an
  adjustment or bulk rebuild, a flattened subtree, a re-segmented leaf;
* ``insert`` filling an EMPTY slot;
* the gapped merge's gap-fill scatter.

Every operation below is followed by a range, so the order is warm
when the next operation runs: a gap fill that forgot its drop shows as
a range missing the key.  ``invalidate_flat``'s drop is backed by the
order's own check of the view it was built on, so what shows its loss
is :meth:`TestPinned.test_invalidate_frees_the_view_the_order_was_built_on`.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.indexes.lipp.index import LippIndex
from repro.indexes.lipp.node import SLOT_EMPTY
from repro.indexes.sali.index import SaliIndex

INT64 = np.iinfo(np.int64)
SPAN = 1 << 20
FAMILIES = [LippIndex, SaliIndex]

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

point = st.integers(min_value=0, max_value=SPAN)
#: ``(kind, where, size)``: *where* picks a fresh key (or, for an
#: overwrite, a stored one by rank), *size* how many keys a burst or a
#: batch writes.  A burst is consecutive keys, so its inserts collide:
#: conflict children, and past the threshold an adjustment rebuild.  A
#: batch of fewer than a quarter of the stored keys takes the gapped
#: merge, a larger one the rebuild.
operation = st.one_of(
    st.tuples(st.sampled_from(["insert", "overwrite", "flatten", "invalidate"]), point, st.just(1)),
    st.tuples(st.just("burst"), point, st.integers(2, 24)),
    # A batch of one to three keys often fills gaps and nothing else.
    st.tuples(st.just("bulk"), point, st.one_of(st.integers(1, 3), st.integers(4, 200))),
)


def _want(oracle: dict[int, int], low: int, high: int) -> list[tuple[int, int]]:
    return [(k, v) for k, v in sorted(oracle.items()) if low <= k <= high]


def _apply(index, oracle: dict[int, int], step: int, op, rng) -> None:
    kind, where, size = op
    if kind == "insert":
        keys = [where]
    elif kind == "overwrite":
        keys = [sorted(oracle)[where % len(oracle)]]
    elif kind == "burst":
        keys = list(range(where, where + size))
    elif kind == "bulk":
        keys = rng.integers(0, SPAN, size).tolist()
        if size % 3 == 0:  # a share of the batch rewrites stored keys
            keys += rng.choice(sorted(oracle), size // 3).tolist()
        values = [k + step * SPAN for k in keys]
        index.bulk_insert_many(np.asarray(keys, dtype=np.int64), np.asarray(values, dtype=np.int64))
        oracle.update(zip(keys, values))
        return
    elif kind == "flatten":
        if isinstance(index, SaliIndex):
            stored = np.asarray(sorted(oracle), dtype=np.int64)
            at = int(np.searchsorted(stored, where))
            index.lookup_many(stored[max(at - 100, 0) : at + 100])
            index.flatten_hot_subtrees(min_probability=0.05)
        return
    else:
        index.invalidate_flat()
        return
    for key in keys:
        index.insert(key, key + step * SPAN)
        oracle[key] = key + step * SPAN


@pytest.mark.parametrize("cls", FAMILIES, ids=lambda c: c.name)
class TestDropSites:
    @SETTINGS
    @given(
        raw=st.lists(point, min_size=80, max_size=400),
        ops=st.lists(operation, min_size=1, max_size=12),
        bounds=st.tuples(point, point),
        seed=st.integers(0, 2**16),
    )
    def test_every_range_matches_the_oracle(self, cls, raw, ops, bounds, seed, range_pairs):
        keys = np.unique(np.asarray(raw, dtype=np.int64))
        index = cls.build(keys, keys * 3)
        oracle = dict(zip(keys.tolist(), (keys * 3).tolist()))
        rng = np.random.default_rng(seed)
        low, high = min(bounds), max(bounds)
        for step, op in enumerate(ops, start=1):
            index.range_query(low, high)  # the order is warm when op runs
            _apply(index, oracle, step, op, rng)
            everything = index.range_query(int(INT64.min), int(INT64.max))
            assert range_pairs(everything) == _want(oracle, int(INT64.min), int(INT64.max)), op
            assert range_pairs(index.range_query(low, high)) == _want(oracle, low, high), op


def _gap_filler(index, rng) -> int:
    """A fresh key whose descent ends alone in an EMPTY slot of a LIPP
    node: inserting it writes the slot in place, no structure."""
    flat = index._flat_view()
    candidates = np.setdiff1d(rng.integers(0, SPAN, 400), list(index.iter_keys()))
    __, slot, kind, leaf = flat.locate(candidates)
    empty = (kind == SLOT_EMPTY) & (leaf < 0)
    __, first, counts = np.unique(slot[empty], return_index=True, return_counts=True)
    fillers = candidates[empty][first[counts == 1]]
    assert fillers.size
    return int(fillers[0])


@pytest.mark.parametrize("cls", FAMILIES, ids=lambda c: c.name)
class TestPinned:
    @pytest.fixture()
    def index(self, cls, rng):
        keys = np.unique(rng.integers(0, SPAN, 500))
        index = cls.build(keys, keys * 3)
        index.range_query(0, SPAN)  # builds the order
        return index

    @pytest.mark.parametrize("bulk", [False, True], ids=["insert", "bulk"])
    def test_an_overwrite_is_seen_with_no_drop(self, index, bulk, range_pairs):
        order = index._order
        key = int(order[1][7])
        if bulk:
            index.bulk_insert_many(np.asarray([key]), np.asarray([-5]))
        else:
            index.insert(key, -5)
        assert index._order is order  # read live through the positions
        assert range_pairs(index.range_query(key, key)) == [(key, -5)]

    @pytest.mark.parametrize("bulk", [False, True], ids=["insert", "bulk"])
    def test_a_gap_fill_is_seen(self, index, rng, bulk, range_pairs):
        view = index._flat
        key = _gap_filler(index, rng)
        if bulk:
            index.bulk_insert_many(np.asarray([key]), np.asarray([-7]))
        else:
            index.insert(key, -7)
        assert index._flat is view  # in place: the view was not dropped
        assert range_pairs(index.range_query(key - 1, key + 1)) == [(key, -7)]

    def test_invalidate_frees_the_view_the_order_was_built_on(self, index):
        """A dropped view dies with the drop; nothing derived from it —
        the order included — keeps its arrays alive."""
        node_level = weakref.ref(index._flat.node_level)
        index.invalidate_flat()
        gc.collect()
        assert node_level() is None


def test_racing_readers_each_see_a_whole_order(rng, range_pairs):
    """Readers that find the order dropped all rebuild it at once (the
    service lets readers overlap, never a reader and a writer); each
    publishes a whole tuple, so every one of them answers right."""
    keys = np.unique(rng.integers(0, SPAN, 2_000))
    index = LippIndex.build(keys, keys * 3)
    oracle = dict(zip(keys.tolist(), (keys * 3).tolist()))
    bounds = [tuple(sorted(rng.integers(0, SPAN, 2).tolist())) for __ in range(8)]
    answers: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for step in range(10):
            key = _gap_filler(index, rng)
            index.insert(key, -step)  # drops the order
            oracle[key] = -step
            start = threading.Barrier(len(bounds))

            def read(low: int, high: int) -> None:
                start.wait(10)
                answers.append((low, high, index.range_query(low, high)))

            threads = [threading.Thread(target=read, args=b, daemon=True) for b in bounds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
            assert len(answers) == len(bounds)
            for low, high, got in answers:
                assert range_pairs(got) == _want(oracle, low, high)
            answers.clear()
    finally:
        sys.setswitchinterval(interval)
