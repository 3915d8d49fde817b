"""IndexService: the acceptance parity suite plus buffer/merge.

The load-bearing guarantees (ISSUE 2 acceptance criteria):

* For every served family, a K≥4 service returns
  batch results whose per-query entries match the per-key semantics
  of its shards exactly, whose found/values (and therefore hit rate)
  match a single index built on the same keys, and whose per-shard
  simulated-ns sums re-aggregate to the gathered total.
* A K=1 service is bit-identical to the bare index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import InvalidKeysError
from repro.indexes import CSV_FAMILIES, INDEX_FAMILIES
from repro.serving import IndexService
from repro.store import DurableStore

ALL_FAMILIES = sorted(CSV_FAMILIES)
BASELINES = sorted(set(INDEX_FAMILIES) - set(CSV_FAMILIES))


def service_fixture(rng, family, **kwargs):
    keys = np.unique(rng.integers(0, 10**7, 1500))
    queries = np.concatenate(
        [rng.choice(keys, 600), rng.integers(0, 10**7, 150)]  # hits + misses
    )
    service = IndexService.build(keys, family=family, **kwargs)
    return keys, queries, service


# Shard work runs inline; the one-valued axis only keeps these ids
# (``[serial-<family>]``) what they were beside the thread and process
# executors, so the test floor still names them.
@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("execution", ["serial"])
class TestScatterGatherParity:
    def test_matches_monolithic_and_per_key(self, rng, family, execution):
        keys, queries, service = service_fixture(rng, family, n_shards=4)
        with service:
            mono = INDEX_FAMILIES[family].build(keys)
            reference = mono.lookup_many(queries)
            batch = service.lookup_many(queries)

            # Correctness: same answers as the monolithic index.
            assert np.array_equal(batch.found, reference.found)
            assert np.array_equal(batch.values, reference.values)
            assert batch.hit_rate == reference.hit_rate

            # Cost: every entry matches per-key lookups on the shard
            # that served it (scatter/gather adds no distortion).
            shard_ids = service.router.shard_of(queries)
            for i in range(0, queries.size, 13):
                shard = service.router.shards[int(shard_ids[i])]
                stat = shard.lookup_stats(int(queries[i]))
                assert stat.found == bool(batch.found[i])
                assert stat.levels == int(batch.levels[i])
                assert stat.search_steps == int(batch.search_steps[i])

    def test_per_shard_ns_sums_to_total(self, rng, family, execution):
        keys, queries, service = service_fixture(rng, family, n_shards=4)
        with service:
            routed = service.router.lookup_many(queries)
            gathered_ns = routed.gathered.simulated_ns(service.constants)
            # Each shard's share of the gathered cost is what that shard
            # itself reports for the queries routed to it.
            for shard_no, shard in enumerate(service.router.shards):
                mine = routed.shard_ids == shard_no
                own = shard.lookup_many(queries[mine]).simulated_ns(service.constants)
                assert float(gathered_ns[mine].sum()) == pytest.approx(float(own.sum()))
            assert np.array_equal(routed.shard_ids, service.router.shard_of(queries))


@pytest.mark.parametrize("family", BASELINES)
def test_a_read_only_baseline_is_not_served(family, tmp_path):
    """Only the CSV families are served: a baseline is refused before
    anything is built or written."""
    keys = np.arange(0, 3_000, 3, dtype=np.int64)
    with pytest.raises(InvalidKeysError, match=family):
        IndexService.build(keys, family=family)
    store = DurableStore(tmp_path / "data")
    with pytest.raises(InvalidKeysError, match=family):
        IndexService.build(keys, family=family, store=store)
    assert store.manifest is None


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_k1_service_is_bit_identical_to_bare_index(rng, family):
    keys, queries, service = service_fixture(rng, family, n_shards=1)
    with service:
        bare = INDEX_FAMILIES[family].build(keys)
        reference = bare.lookup_many(queries)
        batch = service.lookup_many(queries)
        for field in ("keys", "found", "values", "levels", "search_steps"):
            assert np.array_equal(getattr(batch, field), getattr(reference, field))


class TestWriteBuffer:
    def test_buffered_writes_visible_to_reads(self, rng):
        keys, __, service = service_fixture(
            rng, "lipp", n_shards=4, staleness_threshold=10.0
        )
        fresh = np.asarray([10**8 + i for i in range(20)], dtype=np.int64)
        service.insert_many(fresh, fresh + 1)
        assert sum(service.buffered_counts()) == 20
        assert service.stats.merges == 0
        got = service.lookup_many(fresh)
        assert got.found.all()
        assert np.array_equal(got.values, fresh + 1)
        # Buffered hits are memtable answers: no shard traversal.
        assert (got.levels == 0).all()
        assert service.stats.buffer_hits == 20

    def test_buffer_update_overrides_stored_value(self, rng):
        keys, __, service = service_fixture(
            rng, "alex", n_shards=4, staleness_threshold=10.0
        )
        target = int(keys[42])
        service.insert_many(np.asarray([target]), np.asarray([999]))
        assert service.lookup(target) == 999
        service.flush()
        assert service.lookup(target) == 999

    def test_staleness_triggers_merge_and_resmooth(self, rng):
        keys, __, service = service_fixture(
            rng, "lipp", n_shards=4, staleness_threshold=0.01, alpha=0.1
        )
        span = int(keys[-1])
        fresh = np.unique(rng.integers(0, span, 200))
        fresh = np.setdiff1d(fresh, keys)
        service.insert_many(fresh)
        assert service.stats.merges > 0
        assert service.stats.resmoothed_shards > 0
        assert service.lookup_many(fresh).found.all()

    def test_flush_merges_everything(self, rng):
        keys, __, service = service_fixture(
            rng, "alex", n_shards=4, staleness_threshold=10.0
        )
        fresh = np.unique(rng.integers(0, 10**7, 100))
        fresh = np.setdiff1d(fresh, keys)
        service.insert_many(fresh)
        service.flush()
        assert service.buffered_counts() == (0, 0, 0, 0)
        got = service.lookup_many(fresh)
        assert got.found.all()
        # Post-merge reads come from the shards again.
        assert (got.levels >= 1).all()

    def test_writes_landing_mid_merge_survive(self):
        """The merge path drops exactly its snapshot: entries added or
        rewritten after the snapshot stay buffered."""
        from repro.serving.service import _Memtable

        buffer = _Memtable()
        buffer.put_run(
            np.asarray([1, 2], dtype=np.int64), np.asarray([10, 20], dtype=np.int64)
        )
        merged_keys, merged_vals, mark = buffer.snapshot()
        assert merged_keys.tolist() == [1, 2] and merged_vals.tolist() == [10, 20]
        # A writer lands a fresh key and rewrites key 2 mid-merge.
        buffer.put_run(
            np.asarray([3, 2], dtype=np.int64), np.asarray([30, 22], dtype=np.int64)
        )
        buffer.drop_through(mark)
        keys, vals = buffer.arrays()
        assert keys.tolist() == [2, 3] and vals.tolist() == [22, 30]
        assert len(buffer) == 2


class TestServiceRangeAndReporting:
    def test_range_query_includes_buffered_writes(self, rng, range_pairs):
        keys, __, service = service_fixture(
            rng, "alex", n_shards=4, staleness_threshold=10.0
        )
        low, high = int(keys[100]), int(keys[900])
        inside = (low + high) // 2
        if inside in keys:
            inside += 1
        service.insert_many(np.asarray([inside]), np.asarray([-5]))
        got = range_pairs(service.range_arrays(low, high))
        assert service.range_query(low, high) == got
        expected = sorted(
            {int(k): int(k) for k in keys if low <= k <= high} | {inside: -5}
        )
        assert [k for k, __ in got] == expected
        assert dict(got)[inside] == -5

    def test_latency_report_percentiles(self, rng):
        keys, queries, service = service_fixture(rng, "lipp", n_shards=4)
        service.lookup_many(queries)
        report = service.health_report()
        assert len(report.shards) == 4
        for row in (*report.shards, report.total):
            assert row.p50_ns <= row.p90_ns <= row.p99_ns
            assert row.queries > 0
        assert report.total.queries == queries.size

    def test_n_keys_counts_net_new_buffered(self, rng):
        keys, __, service = service_fixture(
            rng, "alex", n_shards=2, staleness_threshold=10.0
        )
        base = service.n_keys
        assert base == keys.size
        existing = keys[:5]
        fresh = np.asarray([10**9, 10**9 + 1], dtype=np.int64)
        service.insert_many(np.concatenate([existing, fresh]))
        assert service.n_keys == base + 2
