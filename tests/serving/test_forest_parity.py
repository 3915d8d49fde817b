"""The one-sweep forest view against the per-shard paths it replaced.

A LIPP/SALI router answers a batch with one flat sweep over the
concatenated shard views (``LippForest``).  Everything it returns —
found / values / levels / search_steps, the service's read ledger,
ranges — is checked against an oracle
that never touches the forest:

* the per-shard loop: ``shard.lookup_many(q[shard_ids == s])`` per shard;
* the scalar walk: ``shard.lookup_stats(key)`` per key;
* ranges: the in-order ``iter_entries`` node walk;
* the ledger: one priced observation per key, per shard over a boolean
  mask — what the service did before it kept one ``bincount`` of
  ``(shard, levels, steps)`` and priced it on demand.

The second half pins rule (b): the forest is built where a shard is
published — construction, ``open_snapshot``, ``_run_merge`` — and a
read never compiles anything.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.csv_algorithm import CsvConfig, apply_csv
from repro.indexes import INDEX_FAMILIES
from repro.indexes.adapters import adapter_for
from repro.indexes.lipp import LippForest
from repro.indexes.lipp.flat import StaleFlatError
from repro.indexes.lipp.forest import ForestBatch
from repro.indexes.lipp.index import LippIndex
from repro.indexes.lipp.node import SLOT_CHILD, SLOT_DATA, SLOT_EMPTY
from repro.obs.metrics import Histogram, MetricsRegistry, scoped_registry
from repro.serving import IndexService, ShardRouter
from repro.store import DurableStore

FOREST_FAMILIES = ["lipp", "sali"]
SHARD_COUNTS = [1, 2, 4, 7]
ALPHAS = [None, 0.1]


def _keys(rng, n=2400) -> np.ndarray:
    """Clustered keys (deep trees), negative ones included."""
    centers = rng.integers(-(1 << 40), 1 << 40, 9)
    return np.unique(
        np.concatenate([c + rng.lognormal(6, 1.7, n // 9).astype(np.int64) for c in centers])
    )


def _shards(keys, family, k, alpha):
    """*k* shards over *keys* — one of them empty (``None``, reached by
    a duplicated boundary) whenever ``k >= 2`` — plus the boundaries."""
    cls = INDEX_FAMILIES[family]
    cuts = np.linspace(0, keys.size, max(k, 2)).astype(int)[1:-1]  # k - 2 of them
    if k >= 2:
        # One more, a duplicate (or, for k = 2, position 0): an empty shard.
        cuts = np.sort(np.concatenate([cuts, cuts[:1] if cuts.size else [0]]))
    boundaries = keys[cuts]
    shards = []
    for part in np.split(keys, cuts):
        if not part.size:
            shards.append(None)
            continue
        shard = cls.build(part, part * 3 + 1)
        if alpha is not None:
            apply_csv(adapter_for(shard), CsvConfig(alpha=alpha))
        shards.append(shard)
    assert len(shards) == k and (k == 1 or None in shards)
    return shards, boundaries


def _queries(rng, keys) -> np.ndarray:
    present = rng.choice(keys, 700)
    absent = rng.choice(keys, 150) + rng.integers(1, 4, 150)
    far = np.asarray([np.iinfo(np.int64).min, keys[0] - 1, keys[-1] + 1, np.iinfo(np.int64).max])
    q = np.concatenate([present, absent, far])
    rng.shuffle(q)
    return q


def _per_shard(router, q):
    """The per-shard loop, written out: (found, values, levels, steps)."""
    shard_ids = router.shard_of(q)
    out = [np.zeros(q.size, dtype=t) for t in (bool, np.int64, np.int64, np.int64)]
    for shard_no, shard in enumerate(router.shards):
        mine = shard_ids == shard_no
        if shard is None or not mine.any():
            continue
        batch = shard.lookup_many(q[mine])
        for arr, got in zip(out, (batch.found, batch.values, batch.levels, batch.search_steps)):
            arr[mine] = got
    return shard_ids, out


def _access_counts(router) -> list[list[int]]:
    """Every node's (and flattened leaf's) ``access_count``, per shard,
    in walk order."""
    return [
        [] if shard is None else [node.access_count for node in shard.root.walk()]
        for shard in router.shards
    ]


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("k", SHARD_COUNTS)
@pytest.mark.parametrize("family", FOREST_FAMILIES)
class TestLookupParity:
    def test_forest_matches_per_shard_and_scalar(self, rng, family, k, alpha):
        keys = _keys(rng)
        router = ShardRouter(*_shards(keys, family, k, alpha))
        assert isinstance(router._forest, LippForest)
        q = _queries(rng, keys)
        routed = router.lookup_many(q)
        shard_ids, (found, values, levels, steps) = _per_shard(router, q)
        assert np.array_equal(routed.shard_ids, shard_ids)
        got = routed.gathered
        assert np.array_equal(got.keys, q)
        assert np.array_equal(got.found, found)
        assert np.array_equal(got.values, values)
        assert np.array_equal(got.levels, levels)
        assert np.array_equal(got.search_steps, steps)
        # The fallback path is that same loop.
        loop = router._scatter_gather(q).gathered
        for name in ("found", "values", "levels", "search_steps"):
            assert np.array_equal(getattr(loop, name), getattr(got, name))
        for i in range(0, q.size, 5):
            shard = router.shards[int(shard_ids[i])]
            if shard is None:
                assert not got.found[i] and got.levels[i] == 0 and got.search_steps[i] == 0
                continue
            scalar = shard.lookup_stats(int(q[i]))
            assert scalar.found == bool(got.found[i])
            assert scalar.levels == int(got.levels[i])
            assert scalar.search_steps == int(got.search_steps[i])
            if scalar.found:
                assert scalar.value == int(got.values[i]) == int(q[i]) * 3 + 1

    def test_range_matches_the_node_walk(self, rng, family, k, alpha, range_pairs):
        keys = _keys(rng)
        router = ShardRouter(*_shards(keys, family, k, alpha))
        walk = [
            pair
            for shard in router.shards
            if shard is not None
            for pair in shard.root.iter_entries()
        ]
        assert [key for key, __ in walk] == keys.tolist()
        for __ in range(12):
            low, high = sorted(rng.choice(keys, 2) + rng.integers(-2, 3, 2))
            want = [(key, value) for key, value in walk if low <= key <= high]
            assert range_pairs(router.range_query(int(low), int(high))) == want
        bounds = np.iinfo(np.int64)
        assert range_pairs(router.range_query(int(bounds.min), int(bounds.max))) == walk
        assert range_pairs(router.range_query(-(10**30), 10**30)) == walk
        assert range_pairs(router.range_query(int(keys[5]), int(keys[4]))) == []


class TestSaliTracking:
    @pytest.mark.parametrize("k", SHARD_COUNTS)
    def test_forest_leaves_access_counts_alone(self, rng, k):
        """Nothing on the serving path reads SALI's access statistics, so
        the forest's sweep credits none; a bare SALI index's own
        ``lookup_many`` (what the figure scripts drive) still does."""
        keys = _keys(rng)
        routers = [ShardRouter(*_shards(keys, "sali", k, None)) for __ in range(2)]
        hot = keys[: keys.size // 8]
        warm = np.concatenate([rng.choice(hot, 3000), rng.choice(keys, 300)])
        for router in routers:
            for shard_no, shard in enumerate(router.shards):
                if shard is not None:
                    shard.lookup_many(warm[router.shard_of(warm) == shard_no])
        flattened = [
            sum(s.flatten_hot_subtrees(0.05) for s in router.shards if s is not None)
            for router in routers
        ]
        assert flattened[0] == flattened[1] > 0
        # Flattening is structural: publish the shards again.
        forest, loop = (ShardRouter(list(r.shards), r.boundaries) for r in routers)
        assert any(s.flattened_nodes() for s in forest.shards if s is not None)
        untouched = _access_counts(forest)
        totals = [s.tracker.total_queries for s in forest.shards if s is not None]
        assert _access_counts(loop) == untouched
        for __ in range(3):
            q = _queries(rng, keys)
            got = forest.lookup_many(q).gathered
            want = loop._scatter_gather(q).gathered
            for name in ("found", "values", "levels", "search_steps"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.search_steps.any()  # flattened leaves were searched
        assert _access_counts(forest) == untouched
        assert [s.tracker.total_queries for s in forest.shards if s is not None] == totals
        credited = _access_counts(loop)  # the bare indexes' own sweeps
        assert credited != untouched
        assert all(
            after >= before
            for shard_after, shard_before in zip(credited, untouched)
            for after, before in zip(shard_after, shard_before)
        )
        for mine, theirs in zip(forest.shards, loop.shards):
            if theirs is not None:
                assert theirs.tracker.total_queries > mine.tracker.total_queries


def _gap_fillers(shard, candidates: np.ndarray) -> np.ndarray:
    """The *candidates* that land alone in an EMPTY slot of *shard*:
    merging them writes slots in place and changes no structure."""
    flat = shard._flat_view()
    __, slot, kind, leaf = flat.locate(candidates)
    empty = (kind == SLOT_EMPTY) & (leaf < 0)
    __, first, counts = np.unique(slot[empty], return_index=True, return_counts=True)
    return candidates[empty][first[counts == 1]]


@pytest.mark.parametrize("family", FOREST_FAMILIES)
class TestWritesStayVisible:
    def test_gap_fills_reach_the_forest_without_a_rebuild(self, rng, family, range_pairs):
        """Rule (a): the forest shares the slot buffers with the shards."""
        keys = _keys(rng)
        shards, boundaries = _shards(keys, family, 4, None)
        forest = LippForest(shards, boundaries)
        new_keys = []
        for shard in shards:
            if shard is None:
                continue
            lo, hi = next(shard.iter_keys()), shard.root.collect_arrays()[0][-1]
            fillers = _gap_fillers(shard, np.unique(rng.integers(lo, hi, 400)))[:40]
            assert fillers.size > 5
            view = shard._flat
            shard.bulk_insert_many(fillers, fillers * 7)
            if shard.lookup(int(keys[1])) is not None:
                shard.insert(int(keys[1]), -5)  # a value overwrite through a node
            assert shard._flat is view  # nothing was invalidated
            new_keys.append(fillers)
        new_keys = np.concatenate(new_keys)
        got = forest.lookup_many(new_keys)
        assert bool(got.found.all())
        assert np.array_equal(got.values, new_keys * 7)
        assert forest.lookup_many(keys[1:2]).values[0] == -5
        router = ShardRouter(shards, boundaries)
        pairs = range_pairs(router.range_query(int(keys[0]), int(keys[-1])))
        assert [k for k, __ in pairs] == np.union1d(keys, new_keys).tolist()
        assert dict(pairs)[int(keys[1])] == -5

    def test_a_structural_change_makes_the_forest_refuse(self, rng, family):
        keys = _keys(rng)
        shards, boundaries = _shards(keys, family, 4, None)
        router = ShardRouter(shards, boundaries)
        shard = shards[0]
        stored = shard.root.collect_arrays()[0]
        absent = np.setdiff1d(stored + 1, stored)
        on_data = shard._flat.locate(absent)[2] == SLOT_DATA
        colliding = absent[on_data][:1]
        shard.insert(int(colliding[0]), 9)  # a conflict child, behind the router
        assert shard._flat is None
        with pytest.raises(StaleFlatError):
            router._forest.lookup_many(colliding)
        got = router.lookup_many(colliding).gathered  # scattered instead
        assert got.found[0] and got.values[0] == 9
        router.replace_shard(0, shard)  # published: one sweep again
        got = router._forest.lookup_many(colliding)
        assert got.found[0] and got.values[0] == 9
        assert got.levels[0] == shard.key_level(int(colliding[0])) >= 2

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("structural", [False, True], ids=["gap_fill", "structural"])
    def test_merges_are_visible_to_lookups_and_ranges(
        self, rng, family, alpha, structural, range_pairs
    ):
        keys = _keys(rng)
        service = IndexService.build(
            keys, family=family, n_shards=4, alpha=alpha, values=keys * 3 + 1,
            staleness_threshold=10.0, metrics=MetricsRegistry(enabled=False),
        )
        if structural:
            new_keys = np.setdiff1d(rng.choice(keys, 300) + 1, keys)
        else:
            candidates = np.unique(rng.integers(keys[0], keys[-1], 4000))
            owner = service.router.shard_of(candidates)
            new_keys = np.concatenate([
                _gap_fillers(shard, candidates[owner == shard_no])[:30]
                for shard_no, shard in enumerate(service.router.shards)
            ])
            assert new_keys.size > 40
        views = [shard._flat for shard in service.router.shards]
        service.insert_many(new_keys, new_keys * 11)
        service.flush()
        assert service.buffered_counts() == (0, 0, 0, 0) and service.stats.merges > 0
        kept = [shard._flat is view for shard, view in zip(service.router.shards, views)]
        if structural or alpha is not None:
            assert not all(kept)  # a conflict child or a re-smooth rebuilt something
        else:
            assert all(kept)  # in-place: the shard views were never invalidated
        everything = np.union1d(keys, new_keys)
        routed = service.router.lookup_many(everything)
        assert isinstance(routed.gathered, ForestBatch)  # one sweep, not the fallback
        assert bool(routed.gathered.found.all())
        is_new = np.isin(everything, new_keys)
        assert np.array_equal(routed.gathered.values[is_new], everything[is_new] * 11)
        assert np.array_equal(routed.gathered.values[~is_new], everything[~is_new] * 3 + 1)
        __, (found, values, levels, steps) = _per_shard(service.router, everything)
        assert np.array_equal(routed.gathered.levels, levels) and found.all()
        pairs = range_pairs(service.range_arrays(int(everything[0]), int(everything[-1])))
        assert service.range_query(int(everything[0]), int(everything[-1])) == pairs
        assert [k for k, __ in pairs] == everything.tolist()
        assert [v for __, v in pairs] == routed.gathered.values.tolist()


def _conflict_behind_the_views_back(shard, key: int) -> None:
    """Direct tree surgery: a conflict child at the DATA slot where
    *key*'s descent ends, made without ``invalidate_flat`` — the slot
    turns CHILD in the shared buffers and the view never maps it."""
    node, slot, __ = shard._descend(key)
    assert int(node.slot_type[slot]) == SLOT_DATA and int(node.slot_keys[slot]) == key
    stored = set(shard.root.collect_arrays()[0].tolist())
    other = next(k for k in range(key + 1, key + 100) if k not in stored)
    node.make_conflict_child(slot, other, other * 3 + 1)


def _scalar(shard, q) -> tuple[np.ndarray, ...]:
    """``(found, values, levels, steps)`` by the scalar ``_descend`` walk."""
    stats = [shard.lookup_stats(int(key)) for key in q]
    return (
        np.asarray([s.found for s in stats]),
        np.asarray([s.value if s.found else 0 for s in stats], dtype=np.int64),
        np.asarray([s.levels for s in stats], dtype=np.int64),
        np.asarray([s.search_steps for s in stats], dtype=np.int64),
    )


@pytest.mark.parametrize("family", FOREST_FAMILIES)
class TestStaleOnTheFollowedPath:
    """A sweep checks staleness on the CHILD links it follows: a slot
    made CHILD behind the view's back refuses the sweeps whose keys
    pass through it, before they write anything, and no other."""

    def _setup(self, rng, family):
        keys = _keys(rng)
        shards, boundaries = _shards(keys, family, 4, None)
        shard = shards[2]
        mine = shard.root.collect_arrays()[0]
        __, slot, kind, __ = shard._flat_view().locate(mine)
        on_data = np.flatnonzero(kind == SLOT_DATA)
        probed, rest = on_data[: on_data.size // 2], on_data[on_data.size // 2 :]
        off_path = rest[~np.isin(slot[rest], slot[probed])]
        return shards, boundaries, shard, mine[probed], int(mine[off_path[0]])

    def test_a_probed_path_refuses_before_writing(self, rng, family):
        __, __, shard, probed, __ = self._setup(rng, family)
        flat = shard._flat
        _conflict_behind_the_views_back(shard, int(probed[3]))
        assert shard._flat is flat  # nobody told the view
        outs = (
            np.ones(probed.size, dtype=bool),
            np.full(probed.size, -7, dtype=np.int64),
            np.full(probed.size, 99, dtype=np.int64),
            np.full(probed.size, 98, dtype=np.int64),
        )
        before = [out.copy() for out in outs]
        with pytest.raises(StaleFlatError):
            flat.lookup_many_into(probed, *outs)
        for out, was in zip(outs, before):
            assert np.array_equal(out, was)
        with pytest.raises(StaleFlatError):
            flat.locate(probed)

    def test_the_index_retries_once_and_answers_like_the_scalar_walk(self, rng, family):
        __, __, shard, probed, __ = self._setup(rng, family)
        _conflict_behind_the_views_back(shard, int(probed[3]))
        registry = MetricsRegistry(enabled=True)
        with scoped_registry(registry):
            got = LippIndex.lookup_many(shard, probed)  # untracked, like the scalar oracle
        assert registry.counter("flat_stale_retries_total", family=family).value == 1
        found, values, levels, steps = _scalar(shard, probed)
        assert np.array_equal(got.found, found) and found.all()
        assert np.array_equal(got.values, values)
        assert np.array_equal(got.levels, levels)
        assert np.array_equal(got.search_steps, steps)
        assert got.levels[3] == shard.key_level(int(probed[3]))

    def test_the_router_falls_back_to_scatter(self, rng, family):
        shards, boundaries, shard, probed, __ = self._setup(rng, family)
        router = ShardRouter(shards, boundaries)
        _conflict_behind_the_views_back(shard, int(probed[3]))
        with pytest.raises(StaleFlatError):
            router._forest.lookup_many(probed)
        routed = router.lookup_many(probed)
        assert not isinstance(routed.gathered, ForestBatch)  # scattered instead
        found, values, levels, __ = _scalar(shard, probed)
        assert np.array_equal(routed.gathered.found, found) and found.all()
        assert np.array_equal(routed.gathered.values, values)
        assert np.array_equal(routed.gathered.levels, levels)

    def test_off_every_probed_path_the_sweep_answers(self, rng, family):
        shards, boundaries, shard, probed, off_path = self._setup(rng, family)
        router = ShardRouter(shards, boundaries)
        flat = shard._flat
        _conflict_behind_the_views_back(shard, off_path)
        registry = MetricsRegistry(enabled=True)
        with scoped_registry(registry):
            got = LippIndex.lookup_many(shard, probed)
            routed = router.lookup_many(probed)
        assert registry.counter("flat_stale_retries_total", family=family).value == 0
        assert shard._flat is flat  # no recompile either
        found, values, levels, steps = _scalar(shard, probed)
        for batch in (got, routed.gathered):
            assert np.array_equal(batch.found, found) and found.all()
            assert np.array_equal(batch.values, values)
            assert np.array_equal(batch.levels, levels)
            assert np.array_equal(batch.search_steps, steps)
        assert isinstance(routed.gathered, ForestBatch)  # one sweep, no fallback


class TestRegions:
    """A shard is re-placed in its own region of the forest while it
    fits the slack; the forest is rebuilt only when it has outgrown it."""

    @pytest.mark.parametrize("family", FOREST_FAMILIES)
    def test_a_grown_shard_is_replaced_in_place(self, rng, family):
        keys = _keys(rng)
        router = ShardRouter(*_shards(keys, family, 4, None))
        forest, buffer = router._forest, router._forest._flat.slot_keys
        shard = router.shards[0]
        stored = shard.root.collect_arrays()[0]
        new_keys = np.setdiff1d(stored[::12] + 1, stored)  # well inside the slack
        shard.bulk_insert_many(new_keys, new_keys * 3 + 1)
        assert shard._flat is None  # structural
        router.replace_shard(0, shard)
        assert router._forest is forest and forest._flat.slot_keys is buffer
        assert np.shares_memory(shard.root.slot_keys, buffer)
        self._assert_parity(rng, router, np.union1d(keys, new_keys))

    def test_an_outgrown_region_rebuilds_the_forest(self, rng):
        keys = _keys(rng)
        router = ShardRouter(*_shards(keys, "lipp", 4, None))
        forest = router._forest
        shard = router.shards[0]
        stored = shard.root.collect_arrays()[0]
        new_keys = np.setdiff1d(
            np.concatenate([stored + 1, stored + 2, stored + 3]), stored
        )
        new_keys = new_keys[new_keys < router.boundaries[0]]
        shard.bulk_insert_many(new_keys, new_keys * 3 + 1)
        router.replace_shard(0, shard)
        assert router._forest is not forest
        self._assert_parity(rng, router, np.union1d(keys, new_keys))

    def test_a_smaller_tree_leaves_no_stale_slots_behind(self, rng):
        keys = _keys(rng)
        shards, boundaries = _shards(keys, "lipp", 4, None)
        router = ShardRouter(shards, boundaries)
        forest = router._forest
        stored = shards[0].root.collect_arrays()[0]
        kept = stored[::4]
        router.replace_shard(0, type(shards[0]).build(kept, kept * 3 + 1))
        assert router._forest is forest
        got = router.lookup_many(stored).gathered
        assert np.array_equal(got.found, np.isin(stored, kept))
        # A scan over every forest slot sees no slot of the old tree.
        for kind in (SLOT_DATA, SLOT_CHILD):
            assert np.count_nonzero(forest._flat.slot_type == kind) == sum(
                np.count_nonzero(s._flat.slot_type == kind) for s in router.shards if s
            )
        self._assert_parity(rng, router, np.setdiff1d(keys, np.setdiff1d(stored, kept)))

    @staticmethod
    def _assert_parity(rng, router, keys):
        q = _queries(rng, keys)
        routed = router.lookup_many(q)
        assert isinstance(routed.gathered, ForestBatch)
        __, (found, values, levels, steps) = _per_shard(router, q)
        assert np.array_equal(routed.gathered.found, found)
        assert np.array_equal(routed.gathered.values, values)
        assert np.array_equal(routed.gathered.levels, levels)
        assert np.array_equal(routed.gathered.search_steps, steps)
        assert np.array_equal(found, np.isin(q, keys))


class TestLatencyBookkeeping:
    @pytest.mark.parametrize("family", ["lipp", "sali", "alex"])
    def test_report_equals_the_per_shard_mask_bookkeeping(self, rng, family):
        keys = _keys(rng)
        registry = MetricsRegistry(enabled=True)
        service = IndexService.build(
            keys, family=family, n_shards=4, staleness_threshold=10.0, metrics=registry,
        )
        per_key = [[] for __ in range(4)]
        for round_no in range(6):
            if round_no == 3:  # buffered writes: memtable probes add steps
                fresh = rng.choice(keys, 40) + 1
                service.insert_many(fresh[fresh < service.router.boundaries[1]])
            q = _queries(rng, keys)[: int(rng.integers(1, 500))]
            batch = service.lookup_many(q)
            ns = batch.simulated_ns(service.constants)
            shard_ids = service.router.shard_of(q)
            for shard_no in np.unique(shard_ids).tolist():
                per_key[shard_no].append(ns[shard_ids == shard_no])
        service.lookup_many(np.empty(0, dtype=np.int64))
        per_key = [np.concatenate(parts) for parts in per_key]
        exported = registry.histograms()
        report = service.health_report()
        assert report.total.queries == sum(ns.size for ns in per_key)
        for shard_no, ns in enumerate(per_key):
            want = Histogram()
            for value in ns.tolist():
                want.observe(value)
            mine = exported[f"service_lookup_sim_ns{{shard={shard_no}}}"]
            assert mine.count == want.count > 0
            assert np.array_equal(mine._counts, want._counts)
            assert (mine.min, mine.max) == (want.min, want.max)
            assert mine.mean == pytest.approx(want.mean, rel=1e-12)
            row = report.shards[shard_no]
            assert row.p50_ns == np.percentile(ns, 50, method="inverted_cdf")
            assert row.p99_ns == np.percentile(ns, 99, method="inverted_cdf")


def _compiles(registry) -> float:
    return sum(
        registry.counter("flat_compiles_total", family=family).value
        for family in FOREST_FAMILIES
    )


class TestNoLazyBuildOnTheReadPath:
    """Rule (b): a cold compile under two readers is how acknowledged
    keys were once lost; the forest (which compiles every shard) exists
    before any read, wherever a shard is published."""

    def _first_reads_compile_nothing(self, service, registry, q):
        assert isinstance(service.router._forest, LippForest)
        assert all(s._flat is not None for s in service.router.shards if s is not None)
        before = _compiles(registry)
        n_readers = 4  # more than this box has cores
        barrier = threading.Barrier(n_readers)
        results = []

        def read():
            barrier.wait(timeout=30)
            results.append(service.lookup_many(q))

        threads = [threading.Thread(target=read) for __ in range(n_readers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert _compiles(registry) == before
        assert len(results) == n_readers and all(bool(r.found.all()) for r in results)

    @pytest.mark.parametrize("family", FOREST_FAMILIES)
    def test_build_reopen_and_merge_publish_a_ready_forest(self, rng, tmp_path, family):
        from repro.obs.metrics import scoped_registry

        keys = _keys(rng)
        registry = MetricsRegistry(enabled=True)
        with scoped_registry(registry):
            service = IndexService.build(
                keys, family=family, n_shards=4, alpha=0.1, staleness_threshold=10.0,
                metrics=registry, store=DurableStore(tmp_path / "data"),
            )
            assert _compiles(registry) > 0  # paid at construction
            self._first_reads_compile_nothing(service, registry, keys[::3])
            service.close()

            reopened = IndexService.open_snapshot(tmp_path / "data", metrics=registry)
            self._first_reads_compile_nothing(reopened, registry, keys[::3])

            new_keys = np.setdiff1d(rng.choice(keys, 400) + 1, keys)
            reopened.insert_many(new_keys)
            reopened.flush()  # _run_merge -> replace_shard
            assert reopened.stats.merges > 0
            self._first_reads_compile_nothing(reopened, registry, new_keys)
            reopened.close()
