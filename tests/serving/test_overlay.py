"""The buffered read path: one routed pass, one probe of every memtable.

``IndexService.lookup_many`` routes a batch once and then overlays the
buffered writes from one sorted concatenation of the memtables.  The
oracle here is the per-shard overlay it replaced, kept in this file
only: each shard's memtable probed in turn for the queries routed to
it, and only the queries the buffers did not answer routed afterwards.
Over random write / lookup / merge interleavings the two answer and
account bit-identically.

Also here: the threshold rule a write is held to before it may run
on the event loop (:meth:`IndexService.stays_buffered`), and a
monitoring read (``n_keys``) that leaves SALI's access statistics
alone.
"""

from __future__ import annotations

import math
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.indexes import INDEX_FAMILIES
from repro.indexes.base import BatchQueryStats, alloc_batch_outputs
from repro.obs.metrics import MetricsRegistry
from repro.serving import IndexService, ShardRouter
from repro.store import DurableStore

#: Four shards over [0, 4000); stored keys are the multiples of 10, and
#: reads and writes draw multiples of 5, so half of them are new keys.
BOUNDARIES = np.asarray([1000, 2000, 3000], dtype=np.int64)
STORED = np.arange(0, 4000, 10, dtype=np.int64)
KEYS = st.integers(0, 799).map(lambda i: 5 * i)
WRITE = st.tuples(
    st.just("write"), st.lists(st.tuples(KEYS, st.integers(-99, 99)), min_size=1, max_size=40)
)
LOOKUP = st.tuples(st.just("lookup"), st.lists(KEYS | st.integers(-5, 4005), max_size=60))
MERGE = st.tuples(st.just("merge"), st.none())
OPS = st.lists(st.one_of(WRITE, LOOKUP, MERGE), max_size=14)


def per_shard_overlay(
    service: IndexService, q: np.ndarray
) -> tuple[BatchQueryStats, np.ndarray, int]:
    """The oracle: ``(batch, shard_ids, buffer_hits)`` as the service
    answered before it routed once — each shard's memtable probed for
    its own queries, then the unanswered ones routed a second time."""
    shard_ids = service.router.shard_of(q)
    found, values, levels, steps = alloc_batch_outputs(int(q.size))
    pending = np.ones(q.size, dtype=bool)
    buffer_hits = 0
    for shard_no, buffer in enumerate(service._buffers):
        bkeys, bvals = buffer.arrays()
        idx = np.nonzero(shard_ids == shard_no)[0]
        if not bkeys.size or not idx.size:
            continue
        steps[idx] = max(1, math.ceil(math.log2(bkeys.size + 1)))
        sub = q[idx]
        pos = np.searchsorted(bkeys, sub)
        hit = np.zeros(sub.size, dtype=bool)
        in_range = pos < bkeys.size
        hit[in_range] = bkeys[pos[in_range]] == sub[in_range]
        hit_idx = idx[hit]
        found[hit_idx] = True
        values[hit_idx] = bvals[pos[hit]]
        pending[hit_idx] = False
        buffer_hits += int(hit_idx.size)
    if pending.any():
        routed = service.router.lookup_many(q[pending]).gathered
        idx = np.nonzero(pending)[0]
        found[idx] = routed.found
        values[idx] = routed.values
        levels[idx] = routed.levels
        steps[idx] += routed.search_steps
    batch = BatchQueryStats(
        keys=q, found=found, values=values, levels=levels, search_steps=steps
    )
    return batch, shard_ids, buffer_hits


def make_service(family: str, threshold: float, none_shard: bool) -> IndexService:
    """Four shards of *family* over :data:`STORED`; with *none_shard*,
    shard 1 holds nothing (``None``) until a merge materialises it."""
    edges = [None, *BOUNDARIES.tolist(), None]
    shards = []
    for shard_no in range(4):
        lo, hi = edges[shard_no], edges[shard_no + 1]
        keys = STORED[(STORED >= (lo or 0)) & (STORED < (hi or 4000))]
        empty = none_shard and shard_no == 1
        shards.append(None if empty else INDEX_FAMILIES[family].build(keys, keys * 3))
    return IndexService(
        ShardRouter(shards, BOUNDARIES),
        family,
        [None] * 4,
        staleness_threshold=threshold,
        metrics=MetricsRegistry(enabled=False),
    )


def _assert_same_batch(got: BatchQueryStats, want: BatchQueryStats) -> None:
    for field in ("found", "values", "levels", "search_steps"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["lipp", "alex"]),
    threshold=st.sampled_from([0.05, 0.2, 100.0]),
    none_shard=st.booleans(),
    ops=OPS,
)
# Every shard buffered (a None one too, under a threshold that never
# merges), then probed on all four and across the boundaries.
@example(
    family="lipp",
    threshold=100.0,
    none_shard=True,
    ops=[
        ("write", [(5, 1), (1005, 2), (2010, 3), (3995, 4)]),
        ("lookup", [5, 10, 1005, 1010, 2010, 2015, 3995, 3990, -5, 4005]),
        ("merge", None),
        ("lookup", [5, 1005, 2010, 3995]),
    ],
)
def test_one_pass_overlay_matches_the_per_shard_overlay(family, threshold, none_shard, ops):
    service = make_service(family, threshold, none_shard)
    oracle = make_service(family, threshold, none_shard)
    assert (service.router._forest is not None) == (family == "lipp")
    for kind, arg in ops:
        if kind == "write":
            keys = np.asarray([k for k, __ in arg], dtype=np.int64)
            values = np.asarray([v for __, v in arg], dtype=np.int64)
            service.insert_many(keys, values)
            oracle.insert_many(keys, values)
        elif kind == "merge":
            service.flush()
            oracle.flush()
        else:
            q = np.asarray(arg, dtype=np.int64)
            got = service.lookup_many(q)
            want, shard_ids, hits = per_shard_overlay(oracle, q)
            oracle._record_reads(shard_ids, want, hits)
            _assert_same_batch(got, want)
        assert service.buffered_counts() == oracle.buffered_counts()
    assert np.array_equal(service.observed_reads(), oracle.observed_reads())
    assert service.stats == oracle.stats


@settings(max_examples=30, deadline=None)
@given(
    threshold=st.sampled_from([0.02, 0.1]),
    flush_threshold=st.sampled_from([0, 8, 30]),
    batches=st.lists(st.lists(KEYS, min_size=1, max_size=30), min_size=1, max_size=8),
)
@example(threshold=0.1, flush_threshold=30, batches=[[5, 15, 25], [5, 15, 25, 35] * 5])
def test_a_batch_that_stays_buffered_neither_merges_nor_flushes(
    threshold, flush_threshold, batches
):
    with tempfile.TemporaryDirectory() as data_dir:
        service = IndexService.build(
            STORED,
            family="lipp",
            n_shards=4,
            staleness_threshold=threshold,
            metrics=MetricsRegistry(enabled=False),
            store=DurableStore(data_dir, metrics=MetricsRegistry(enabled=False)),
            flush_threshold=flush_threshold,
        )
        for batch in batches:
            keys = np.asarray(batch, dtype=np.int64)
            stays = service.stays_buffered(keys)
            before = service.stats.merges, service.durable_generation()
            service.insert_many(keys)
            if stays:
                assert (service.stats.merges, service.durable_generation()) == before


def test_a_stats_poll_leaves_sali_access_statistics_alone():
    service = IndexService.build(
        STORED, family="sali", n_shards=4, metrics=MetricsRegistry(enabled=False)
    )
    fresh = np.arange(5, 4000, 400, dtype=np.int64)  # new keys in every shard
    service.insert_many(np.concatenate([fresh, STORED[::97]]))
    assert all(service.buffered_counts())

    def books():
        return [
            (shard.tracker.total_queries, [n.access_count for n in shard.root.walk()])
            for shard in service.router.shards
        ]

    before = books()
    assert service.n_keys == STORED.size + fresh.size
    assert books() == before
