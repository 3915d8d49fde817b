"""Exact-parity tests for the batch query engine.

Every backend's ``lookup_many`` must return, field for field, what the
per-key ``lookup_stats`` loop returns — found flags, values, levels
AND search-step counts — and ``bulk_insert_many`` must leave the index
holding what the sequential insert loop leaves.  Aggregation through
``QueryProfile`` must agree between the scalar and the batch paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cost_model import CostConstants
from repro.core.exceptions import IndexStateError
from repro.indexes import CSV_FAMILIES, INDEX_FAMILIES
from repro.indexes.base import BatchQueryStats
from repro.workloads.readonly import QueryProfile

ALL_FAMILIES = sorted(INDEX_FAMILIES)
#: The families with a write path (the baselines are read-only).
UPDATABLE = tuple(sorted(CSV_FAMILIES))


@pytest.fixture()
def mixed_queries(small_keys, rng):
    """Hits and misses, shuffled, spanning the whole key range."""
    absent = np.setdiff1d(
        rng.integers(int(small_keys[0]) - 50, int(small_keys[-1]) + 50, 600), small_keys
    )
    queries = np.concatenate([rng.choice(small_keys, 400), absent[:200]])
    rng.shuffle(queries)
    return queries


def assert_batch_matches_loop(batch, scalar_stats):
    assert batch.n_queries == len(scalar_stats)
    for i, s in enumerate(scalar_stats):
        got = batch.stat(i)
        assert (got.key, got.found, got.value, got.levels, got.search_steps) == (
            s.key, s.found, s.value, s.levels, s.search_steps,
        ), f"query {i} ({s.key}) diverged: {got} != {s}"


class TestLookupManyParity:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_exact_parity_with_scalar_loop(self, family, small_keys, mixed_queries):
        # Two identical indexes: SALI's access tracking mutates on
        # lookups, so the loop and the batch each get a fresh copy.
        loop_index = INDEX_FAMILIES[family].build(small_keys)
        batch_index = INDEX_FAMILIES[family].build(small_keys)
        scalar = [loop_index.lookup_stats(int(k)) for k in mixed_queries]
        batch = batch_index.lookup_many(mixed_queries)
        assert_batch_matches_loop(batch, scalar)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_clustered_keys_parity(self, family, clustered_keys, rng):
        queries = rng.choice(clustered_keys, 500)
        loop_index = INDEX_FAMILIES[family].build(clustered_keys)
        batch_index = INDEX_FAMILIES[family].build(clustered_keys)
        scalar = [loop_index.lookup_stats(int(k)) for k in queries]
        assert_batch_matches_loop(batch_index.lookup_many(queries), scalar)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_empty_batch(self, family, small_keys):
        index = INDEX_FAMILIES[family].build(small_keys)
        batch = index.lookup_many(np.empty(0, dtype=np.int64))
        assert batch.n_queries == 0

    def test_order_preserved(self, small_keys):
        index = INDEX_FAMILIES["sorted_array"].build(small_keys)
        queries = small_keys[::-1][:50]
        batch = index.lookup_many(queries)
        assert np.array_equal(batch.keys, queries)
        assert np.array_equal(batch.values, queries)

    def test_sali_access_counts_match_loop(self, small_keys, mixed_queries):
        loop_index = INDEX_FAMILIES["sali"].build(small_keys)
        batch_index = INDEX_FAMILIES["sali"].build(small_keys)
        for k in mixed_queries:
            loop_index.lookup_stats(int(k))
        batch_index.lookup_many(mixed_queries)
        assert loop_index.tracker.total_queries == batch_index.tracker.total_queries
        loop_counts = sum(n.access_count for n in loop_index.root.walk())
        batch_counts = sum(n.access_count for n in batch_index.root.walk())
        assert loop_counts == batch_counts

    def test_sali_flattened_nodes_parity(self, small_keys, mixed_queries):
        loop_index = INDEX_FAMILIES["sali"].build(small_keys)
        batch_index = INDEX_FAMILIES["sali"].build(small_keys)
        warm = small_keys[: small_keys.size // 3]
        for index in (loop_index, batch_index):
            for k in warm.tolist() * 2:
                index.lookup_stats(int(k))
            index.flatten_hot_subtrees(min_probability=0.01)
        assert batch_index.flattened_nodes(), "fixture should flatten something"
        scalar = [loop_index.lookup_stats(int(k)) for k in mixed_queries]
        assert_batch_matches_loop(batch_index.lookup_many(mixed_queries), scalar)


class TestInsertManyParity:
    @pytest.mark.parametrize("family", UPDATABLE)
    def test_state_matches_sequential_loop(self, insert_each, family, small_keys, rng):
        fresh = np.setdiff1d(
            rng.integers(int(small_keys[0]), int(small_keys[-1]), 400), small_keys
        )[:150]
        rng.shuffle(fresh)
        # Include duplicates within the batch: last value must win.
        batch_keys = np.concatenate([fresh, fresh[:20]])
        batch_vals = np.concatenate([fresh * 2, fresh[:20] * 3])
        loop_index = INDEX_FAMILIES[family].build(small_keys)
        batch_index = INDEX_FAMILIES[family].build(small_keys)
        insert_each(loop_index, batch_keys, batch_vals)
        batch_index.bulk_insert_many(batch_keys, batch_vals)
        assert list(loop_index.iter_keys()) == list(batch_index.iter_keys())
        # Same contents (the bulk layout may differ, so no level parity
        # across the two trees) ...
        probe = np.concatenate([small_keys, fresh])
        want = loop_index.lookup_many(probe)
        got = batch_index.lookup_many(probe)
        assert bool(np.all(got.found)) and bool(np.all(want.found))
        assert np.array_equal(got.values, want.values)
        # ... and the batch answer is the scalar walk of its own tree.
        scalar = [batch_index.lookup_stats(int(k)) for k in probe]
        assert_batch_matches_loop(got, scalar)

    @pytest.mark.parametrize("family", UPDATABLE)
    def test_values_default_to_keys(self, family, small_keys, rng):
        fresh = np.setdiff1d(
            rng.integers(int(small_keys[0]), int(small_keys[-1]), 100), small_keys
        )[:30]
        index = INDEX_FAMILIES[family].build(small_keys)
        index.bulk_insert_many(fresh)
        for k in fresh.tolist():
            assert index.lookup(int(k)) == int(k)

    @pytest.mark.parametrize("family", UPDATABLE)
    def test_updates_existing(self, family, small_keys):
        index = INDEX_FAMILIES[family].build(small_keys)
        index.bulk_insert_many(small_keys[:5], small_keys[:5] * 7)
        for k in small_keys[:5].tolist():
            assert index.lookup(int(k)) == int(k) * 7
        assert index.n_keys == small_keys.size

    @pytest.mark.parametrize("family", UPDATABLE)
    def test_mismatched_values_raise_index_state_error(self, family, small_keys):
        """One error type for a bad write batch, on every writable family."""
        index = INDEX_FAMILIES[family].build(small_keys)
        with pytest.raises(IndexStateError):
            index.bulk_insert_many(small_keys[:4], small_keys[:3])
        assert index.n_keys == small_keys.size


class TestAggregation:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_profile_from_batch_equals_from_stats(self, family, small_keys, mixed_queries):
        consts = CostConstants()
        loop_index = INDEX_FAMILIES[family].build(small_keys)
        batch_index = INDEX_FAMILIES[family].build(small_keys)
        scalar = [loop_index.lookup_stats(int(k)) for k in mixed_queries]
        from_stats = QueryProfile.from_batch(BatchQueryStats.from_query_stats(scalar), consts)
        from_batch = QueryProfile.from_batch(batch_index.lookup_many(mixed_queries), consts)
        assert from_stats == from_batch

    def test_simulated_ns_matches_scalar_model(self, small_keys):
        consts = CostConstants(traversal_ns=7.0, search_ns=3.0, base_ns=1.0)
        index = INDEX_FAMILIES["btree"].build(small_keys)
        batch = index.lookup_many(small_keys[:64])
        ns = batch.simulated_ns(consts)
        for i in range(batch.n_queries):
            assert ns[i] == pytest.approx(batch.stat(i).simulated_ns(consts))

    def test_roundtrip_through_query_stats(self, small_keys):
        index = INDEX_FAMILIES["rmi"].build(small_keys)
        batch = index.lookup_many(small_keys[:40])
        rebuilt = BatchQueryStats.from_query_stats([batch.stat(i) for i in range(batch.n_queries)])
        for field in ("keys", "found", "values", "levels", "search_steps"):
            assert np.array_equal(getattr(batch, field), getattr(rebuilt, field))


#: Batches an int64 cast would truncate or wrap: they are refused.
UNCASTABLE = {
    "float": [10.7],
    "uint64_above_max": np.asarray([2**63 + 5], dtype=np.uint64),
    "python_int_above_max": [2**63 + 5],
    "python_int_above_uint64": [2**64 + 5],
    "object": np.asarray([10, 11], dtype=object),
}


class TestBatchInputsAreNeverCoerced:
    @pytest.mark.parametrize("bad", UNCASTABLE, ids=list(UNCASTABLE))
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_lookup_refuses(self, family, bad, small_keys):
        index = INDEX_FAMILIES[family].build(small_keys)
        with pytest.raises(IndexStateError):
            index.lookup_many(UNCASTABLE[bad])

    @pytest.mark.parametrize("bad", UNCASTABLE, ids=list(UNCASTABLE))
    @pytest.mark.parametrize("family", UPDATABLE)
    def test_insert_refuses_keys_and_values(self, family, bad, small_keys):
        index = INDEX_FAMILIES[family].build(small_keys)
        n = len(UNCASTABLE[bad])
        with pytest.raises(IndexStateError):
            index.bulk_insert_many(UNCASTABLE[bad], np.arange(n))
        with pytest.raises(IndexStateError):
            index.bulk_insert_many(small_keys[:n] + 1, UNCASTABLE[bad])
        assert index.n_keys == small_keys.size

    @pytest.mark.parametrize("bad", UNCASTABLE, ids=list(UNCASTABLE))
    def test_the_service_refuses_on_both_paths(self, bad, small_keys):
        from repro.serving import IndexService

        service = IndexService.build(small_keys, family="lipp", n_shards=2)
        n = len(UNCASTABLE[bad])
        with pytest.raises(IndexStateError):
            service.lookup_many(UNCASTABLE[bad])
        with pytest.raises(IndexStateError):
            service.insert_many(UNCASTABLE[bad], np.arange(n))
        with pytest.raises(IndexStateError):
            service.insert_many(small_keys[:n] + 1, UNCASTABLE[bad])
        assert sum(service.buffered_counts()) == 0

    def test_integer_batches_still_pass(self, small_keys):
        from repro.indexes.base import _as_batch_kv, _as_query_array

        q = small_keys[:8].copy()
        assert _as_query_array(q) is q  # an int64 batch is not copied
        assert _as_batch_kv(q, q)[1] is q
        for dtype in (np.int32, np.uint32, np.uint64, np.int8):
            assert _as_query_array(np.asarray([1, 2], dtype=dtype)).dtype == np.int64
        assert _as_query_array([np.iinfo(np.int64).max])[0] == np.iinfo(np.int64).max
        assert _as_query_array([]).dtype == np.int64  # an empty list is float64
        index = INDEX_FAMILIES["lipp"].build(small_keys)
        assert index.lookup_many(q.astype(np.uint64)).found.all()
