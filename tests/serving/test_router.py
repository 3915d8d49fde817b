"""Scatter/gather router: exactness and the boundary edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import IndexStateError
from repro.indexes import AlexIndex
from repro.serving import IndexService, ShardRouter, build_shard_indexes, plan_shards


def make_router(keys, k, family="alex", **kwargs) -> ShardRouter:
    plan = plan_shards(keys, k)
    shards, __ = build_shard_indexes(plan, family)
    return ShardRouter(shards, plan.boundaries, **kwargs)


class TestRoutingEdges:
    def test_queries_below_all_boundaries(self, rng):
        keys = np.unique(rng.integers(10**6, 10**7, 1000))
        router = make_router(keys, 4)
        below = np.arange(5, dtype=np.int64)  # far below every stored key
        assert np.array_equal(router.shard_of(below), np.zeros(5, dtype=np.int64))
        batch = router.lookup_many(below).gathered
        assert not batch.found.any()
        # The queries were really executed against shard 0 (probes > 0).
        assert (batch.search_steps > 0).all()

    def test_queries_above_all_boundaries(self, rng):
        keys = np.unique(rng.integers(0, 10**6, 1000))
        router = make_router(keys, 4)
        above = np.asarray([10**9, 10**9 + 1], dtype=np.int64)
        assert np.array_equal(router.shard_of(above), np.full(2, 3, dtype=np.int64))
        assert not router.lookup_many(above).gathered.found.any()

    def test_boundary_key_routes_to_owning_shard(self, rng):
        keys = np.unique(rng.integers(0, 10**7, 1000))
        router = make_router(keys, 5)
        # Every boundary is by construction the first key of its shard.
        boundaries = router.boundaries
        ids = router.shard_of(boundaries)
        assert np.array_equal(ids, np.arange(1, 5))
        batch = router.lookup_many(boundaries).gathered
        assert batch.found.all()
        assert np.array_equal(batch.values, boundaries)

    def test_empty_shards_answer_as_misses(self):
        keys = np.asarray([10, 20, 30], dtype=np.int64)
        router = make_router(keys, 8)
        queries = np.asarray([5, 10, 15, 20, 25, 30, 35], dtype=np.int64)
        batch = router.lookup_many(queries).gathered
        assert batch.found.tolist() == [False, True, False, True, False, True, False]
        # Misses on empty shards cost nothing beyond the base constant.
        empty = ~batch.found & (batch.levels == 0)
        assert np.array_equal(batch.search_steps[empty], np.zeros(empty.sum()))

    def test_k1_router_is_bit_identical_to_bare_index(self, rng):
        keys = np.unique(rng.integers(0, 10**7, 1500))
        queries = np.concatenate([rng.choice(keys, 500), rng.integers(0, 10**7, 200)])
        bare = AlexIndex.build(keys)
        router = make_router(keys, 1)
        routed = router.lookup_many(queries)
        reference = bare.lookup_many(queries)
        for field in ("keys", "found", "values", "levels", "search_steps"):
            assert np.array_equal(getattr(routed.gathered, field), getattr(reference, field))
        assert np.array_equal(routed.shard_ids, np.zeros(queries.size, dtype=np.int64))


class TestInsertRouting:
    """Writes reach the router's shards only through the service:
    buffered by ``insert_many``, swapped in by the merge."""

    def test_duplicate_keys_straddling_a_boundary_last_wins(self, rng):
        keys = np.unique(rng.integers(0, 10**7, 1000))
        service = IndexService.build(
            keys, family="alex", n_shards=4, staleness_threshold=10.0
        )
        router = service.router
        boundary = int(router.boundaries[1])  # first key of shard 2
        neighbour = boundary - 1              # routes to shard 1
        batch_keys = np.asarray(
            [boundary, neighbour, boundary, neighbour, boundary], dtype=np.int64
        )
        batch_vals = np.asarray([1, 2, 3, 4, 5], dtype=np.int64)
        service.insert_many(batch_keys, batch_vals)
        buffered = service.buffered_counts()
        assert buffered[1] == 1 and buffered[2] == 1
        service.flush()
        assert service.buffered_counts() == (0, 0, 0, 0)
        got = router.lookup_many(np.asarray([neighbour, boundary])).gathered
        assert got.found.all()
        # Sequential last-wins semantics survive the scatter.
        assert got.values.tolist() == [4, 5]

    def test_insert_into_empty_shard_materialises_it(self):
        keys = np.asarray([10, 20, 30], dtype=np.int64)
        service = IndexService.build(
            keys, family="alex", n_shards=8, staleness_threshold=10.0
        )
        router = service.router
        # Shard 0 (everything below the first boundary) is empty here.
        assert router.shards[0] is None
        fresh = np.asarray([3, 3, 3], dtype=np.int64)  # duplicate batch too
        service.insert_many(fresh, np.asarray([7, 8, 9], dtype=np.int64))
        service.flush()
        assert router.shards[0] is not None
        got = router.lookup_many(np.asarray([3])).gathered
        # Last write wins even through the materialising build.
        assert bool(got.found[0]) and int(got.values[0]) == 9


class TestGatherExactness:
    @pytest.mark.parametrize("family", ["alex", "lipp", "sali"])
    def test_gather_matches_per_key_routing(self, rng, family):
        keys = np.unique(rng.integers(0, 10**7, 1200))
        queries = np.concatenate([rng.choice(keys, 400), rng.integers(0, 10**7, 100)])
        router = make_router(keys, 4, family=family)
        routed = router.lookup_many(queries)
        for i in range(0, queries.size, 7):
            shard = router.shards[int(routed.shard_ids[i])]
            stat = shard.lookup_stats(int(queries[i]))
            assert stat.found == bool(routed.gathered.found[i])
            assert stat.levels == int(routed.gathered.levels[i])
            assert stat.search_steps == int(routed.gathered.search_steps[i])

    def test_per_shard_stats_sum_to_gathered(self, rng):
        keys = np.unique(rng.integers(0, 10**7, 1000))
        queries = rng.choice(keys, 500)
        router = make_router(keys, 4, family="alex")
        routed = router.lookup_many(queries)
        total = sum(
            float(shard.lookup_many(queries[routed.shard_ids == shard_no]).simulated_ns().sum())
            for shard_no, shard in enumerate(router.shards)
        )
        assert total == pytest.approx(float(routed.gathered.simulated_ns().sum()))

    def test_mismatched_boundaries_rejected(self, rng):
        keys = np.unique(rng.integers(0, 10**6, 100))
        plan = plan_shards(keys, 4)
        shards, __ = build_shard_indexes(plan, "alex")
        with pytest.raises(IndexStateError):
            ShardRouter(shards, plan.boundaries[:1])


class TestRangeAndIteration:
    def test_range_query_spans_shards(self, rng, range_pairs):
        keys = np.unique(rng.integers(0, 10**7, 1000))
        router = make_router(keys, 4, family="alex")
        low, high = int(keys[100]), int(keys[800])
        expected = [(int(k), int(k)) for k in keys if low <= k <= high]
        assert range_pairs(router.range_query(low, high)) == expected
        assert range_pairs(router.range_query(high, low)) == []
