"""The sharded service over each served family, on the paper's four
dataset analogues.

Shards are smoothed (α = 0.1) as ``repro serve`` smooths them, and the
Facebook-, Covid-, OSM- and genome-like keys of
:mod:`repro.datasets.synthetic` place the shard boundaries and the
buffered writes unevenly.  Every answer — point lookups, ranges,
merged memtables and a reopened snapshot — is held to a plain dict.
A snapshot reopened by replaying the base files' recorded CSV rebuilds
is held to one reopened by running Algorithm 1 again, down to the
bytes of its slot arrays.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.core.csv_algorithm import CsvConfig, apply_csv
from repro.datasets import DATASETS, generate
from repro.indexes import CSV_FAMILIES, INDEX_FAMILIES
from repro.indexes.adapters import adapter_for
from repro.indexes.alex import AlexIndex
from repro.indexes.lipp.flat import FlatLipp
from repro.obs.metrics import MetricsRegistry, scoped_registry
from repro.serving import IndexService
from repro.serving.partitioner import plan_shards
from repro.store import DurableStore

N_KEYS = 2_000
N_SHARDS = 4
ALPHA = 0.1


@pytest.fixture(params=sorted(DATASETS))
def dataset_keys(request) -> np.ndarray:
    return generate(request.param, N_KEYS, 11)


def writes(rng, keys: np.ndarray) -> np.ndarray:
    """New keys across the span and beside stored ones, past both ends,
    and overwrites of stored keys."""
    lo, hi = int(keys[0]), int(keys[-1])
    fresh = np.setdiff1d(
        np.concatenate([rng.integers(lo, hi, 300), rng.choice(keys, 100) + 1, [lo - 9, hi + 9]]),
        keys,
    )
    return np.concatenate([fresh, keys[::17]])


def bounds(keys: np.ndarray) -> list[tuple[int, int]]:
    return [
        (int(keys[50]), int(keys[600])),
        (int(keys[5]), int(keys[-5])),
        (int(keys[999]), int(keys[999])),
        (int(keys[-1]) + 1, int(keys[-1]) + 500),
        (int(keys[600]), int(keys[50])),
        (int(keys[0]) - 100, int(keys[-1]) + 100),
    ]


def oracle_range(content: dict[int, int], low: int, high: int) -> list[tuple[int, int]]:
    return sorted((k, v) for k, v in content.items() if low <= k <= high)


def assert_serves(service: IndexService, content: dict[int, int], range_pairs) -> None:
    want_keys = np.asarray(sorted(content), dtype=np.int64)
    got = service.lookup_many(want_keys)
    assert bool(got.found.all())
    assert got.values.tolist() == [content[k] for k in want_keys.tolist()]
    assert service.n_keys == want_keys.size
    for low, high in bounds(want_keys):
        assert range_pairs(service.range_arrays(low, high)) == oracle_range(content, low, high)


@pytest.mark.parametrize("family", sorted(CSV_FAMILIES))
class TestServiceOnDataset:
    def test_sharded_answers_equal_the_monolithic_index(self, family, dataset_keys, rng):
        """Found flags and values as one index over all keys; levels
        and steps as the shard that served each query."""
        values = dataset_keys * 3 + 1
        queries = np.concatenate([
            rng.choice(dataset_keys, 500),
            np.setdiff1d(rng.integers(int(dataset_keys[0]), int(dataset_keys[-1]), 200), dataset_keys),
        ])
        mono = INDEX_FAMILIES[family].build(dataset_keys, values)
        reference = mono.lookup_many(queries)
        with IndexService.build(
            dataset_keys, family=family, n_shards=N_SHARDS, values=values, alpha=ALPHA
        ) as service:
            batch = service.lookup_many(queries)
            assert np.array_equal(batch.found, reference.found)
            assert np.array_equal(batch.values[batch.found], reference.values[reference.found])
            shard_ids = service.router.shard_of(queries)
            for i in range(0, queries.size, 7):
                stat = service.router.shards[int(shard_ids[i])].lookup_stats(int(queries[i]))
                assert (stat.found, stat.levels, stat.search_steps) == (
                    bool(batch.found[i]), int(batch.levels[i]), int(batch.search_steps[i])
                )

    def test_buffered_writes_and_their_merge_match_a_dict(self, family, dataset_keys, rng, range_pairs):
        content = dict(zip(dataset_keys.tolist(), dataset_keys.tolist()))
        batch = writes(rng, dataset_keys)
        with IndexService.build(
            dataset_keys, family=family, n_shards=N_SHARDS, alpha=ALPHA,
            staleness_threshold=10.0,  # writes stay in the memtables
        ) as service:
            service.insert_many(batch, -batch)
            content.update(zip(batch.tolist(), (-batch).tolist()))
            assert service.stats.merges == 0 and sum(service.buffered_counts()) > 0
            assert_serves(service, content, range_pairs)
            service.flush()
            assert service.stats.merges > 0 and sum(service.buffered_counts()) == 0
            assert_serves(service, content, range_pairs)

    def test_merges_by_staleness_keep_every_write(self, family, dataset_keys, rng, range_pairs):
        """Three write batches under a low threshold: shards merge and
        re-smooth as they go, and the last batch may stay buffered."""
        content = dict(zip(dataset_keys.tolist(), dataset_keys.tolist()))
        with IndexService.build(
            dataset_keys, family=family, n_shards=N_SHARDS, alpha=ALPHA, staleness_threshold=0.02
        ) as service:
            for round_no in range(3):
                batch = writes(rng, np.asarray(sorted(content), dtype=np.int64))
                service.insert_many(batch, batch + round_no)
                content.update(zip(batch.tolist(), (batch + round_no).tolist()))
            assert service.stats.merges > 0
            assert_serves(service, content, range_pairs)

    def test_snapshot_reopens_as_the_live_service(self, family, dataset_keys, rng, tmp_path, range_pairs):
        content = dict(zip(dataset_keys.tolist(), (dataset_keys * 3 + 1).tolist()))
        batch = writes(rng, dataset_keys)
        with IndexService.build(
            dataset_keys, family=family, n_shards=N_SHARDS, values=dataset_keys * 3 + 1,
            alpha=ALPHA, store=DurableStore(tmp_path / "data"), staleness_threshold=10.0,
        ) as service:
            service.insert_many(batch, batch * 7)
            content.update(zip(batch.tolist(), (batch * 7).tolist()))
            service.snapshot()
        with IndexService.open_snapshot(tmp_path / "data") as reopened:
            assert reopened.family == family
            assert_serves(reopened, content, range_pairs)


def write_without_csv(data_dir, keys: np.ndarray, values: np.ndarray, family: str) -> None:
    """The directory ``IndexService.build(store=)`` writes, short of the
    bases' ``csv`` records (the layout written before they existed):
    every reopen of it runs Algorithm 1."""
    plan = plan_shards(keys, N_SHARDS, values=values, alpha=ALPHA)
    DurableStore(data_dir).initialize(
        family, [int(b) for b in plan.boundaries], plan.alphas,
        list(zip(plan.shard_keys, plan.shard_values)),
    )


def smooth_runs(registry: MetricsRegistry) -> int:
    return int(registry.counters().get("smooth_runs_total", 0))


def assert_same_answers(a: IndexService, b: IndexService, queries: np.ndarray, range_pairs) -> None:
    """Equal lookup stats on *queries* and equal ranges."""
    got, want = a.lookup_many(queries), b.lookup_many(queries)
    for field in ("found", "values", "levels", "search_steps"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    stored = np.unique(queries[got.found])
    for low, high in bounds(stored):
        assert range_pairs(a.range_arrays(low, high)) == range_pairs(b.range_arrays(low, high))


def assert_same_arrays(a: IndexService, b: IndexService) -> None:
    """Byte-equal shards: LIPP/SALI's compiled flat arrays, every ALEX
    data node's slot arrays."""
    for shard_a, shard_b in zip(a.router.shards, b.router.shards):
        if isinstance(shard_a, AlexIndex):
            pairs = [
                (getattr(node_a, name), getattr(node_b, name))
                for node_a, node_b in zip(shard_a._data_nodes(), shard_b._data_nodes(), strict=True)
                for name in ("slot_keys", "slot_values", "occupied")
            ]
        else:
            flat_a, flat_b = shard_a._flat_view(), shard_b._flat_view()
            pairs = [
                (getattr(flat_a, name), getattr(flat_b, name))
                for name in FlatLipp.__slots__
                if isinstance(getattr(flat_a, name, None), np.ndarray)
            ]
        assert pairs
        for array_a, array_b in pairs:
            assert array_a.dtype == array_b.dtype
            assert array_a.tobytes() == array_b.tobytes()


@pytest.mark.parametrize("family", sorted(CSV_FAMILIES))
class TestReplayedReopen:
    """A base written by a smoothed build records CSV's rebuilds; a
    reopen with no runs on top replays them instead of smoothing."""

    @pytest.fixture()
    def snapshots(self, family, dataset_keys, tmp_path):
        """(values, replaying directory, Algorithm-1 directory)."""
        values = dataset_keys * 3 + 1
        replaying, smoothing = tmp_path / "replay", tmp_path / "smooth"
        with IndexService.build(
            dataset_keys, family=family, n_shards=N_SHARDS, values=values,
            alpha=ALPHA, store=DurableStore(replaying),
        ) as service:
            service.snapshot()
        write_without_csv(smoothing, dataset_keys, values, family)
        return values, replaying, smoothing

    def test_replay_equals_algorithm_1(self, family, dataset_keys, snapshots, rng, range_pairs):
        __, replaying, smoothing = snapshots
        queries = np.concatenate([
            dataset_keys, dataset_keys + 1,
            np.setdiff1d(rng.integers(int(dataset_keys[0]), int(dataset_keys[-1]), 500), dataset_keys),
        ])
        with scoped_registry(MetricsRegistry(enabled=True)) as registry:
            replayed = IndexService.open_snapshot(replaying)
            assert smooth_runs(registry) == 0
            smoothed = IndexService.open_snapshot(smoothing)
            assert smooth_runs(registry) > 0
        with replayed, smoothed:
            assert replayed.size_bytes() == smoothed.size_bytes()
            assert_same_answers(replayed, smoothed, queries, range_pairs)
            assert_same_arrays(replayed, smoothed)

    def test_directory_without_csv_opens_with_the_same_answers(
        self, family, dataset_keys, snapshots, range_pairs
    ):
        values, __, smoothing = snapshots
        content = dict(zip(dataset_keys.tolist(), values.tolist()))
        with IndexService.open_snapshot(smoothing) as reopened:
            assert_serves(reopened, content, range_pairs)

    def test_outstanding_runs_smooth_again(self, family, dataset_keys, snapshots, rng, range_pairs):
        """Runs past the staleness threshold (a directory written before
        merges rebased their shard) are merged at open: Algorithm 1
        runs on each such shard, and its fold becomes its base."""
        values, replaying, __ = snapshots
        content = dict(zip(dataset_keys.tolist(), values.tolist()))
        batch = writes(rng, dataset_keys)
        with IndexService.open_snapshot(replaying, staleness_threshold=10.0) as service:
            service.insert_many(batch, batch * 5)
            service.flush_durable()
            content.update(zip(batch.tolist(), (batch * 5).tolist()))
        with scoped_registry(MetricsRegistry(enabled=True)) as registry:
            reopened = IndexService.open_snapshot(replaying)
            assert smooth_runs(registry) > 0
            assert reopened.stats.merges > 0
            assert reopened.store.runs_outstanding() == 0
        with reopened:
            assert_serves(reopened, content, range_pairs)

    def test_merges_after_replay_match_merges_after_smoothing(
        self, family, dataset_keys, snapshots, rng, range_pairs
    ):
        """Staleness-driven merges re-smooth the merged shards alike."""
        __, replaying, smoothing = snapshots
        batches = [writes(rng, dataset_keys) for __ in range(2)]
        services = [
            IndexService.open_snapshot(directory, staleness_threshold=0.02)
            for directory in (replaying, smoothing)
        ]
        with services[0] as replayed, services[1] as smoothed:
            for round_no, batch in enumerate(batches):
                for service in (replayed, smoothed):
                    service.insert_many(batch, batch + round_no)
            assert replayed.stats.merges == smoothed.stats.merges > 0
            queries = np.concatenate([dataset_keys, *batches, dataset_keys + 1])
            assert_same_answers(replayed, smoothed, queries, range_pairs)


@pytest.mark.parametrize("family", sorted(CSV_FAMILIES))
class TestReopenEqualsLive:
    """A merge writes its fold as the shard's base with CSV's record,
    and a reopen puts the runs back into the write buffers: after
    merges, flushes and a crash, the reopened service is the live one."""

    def test_after_merges_flushes_and_a_crash(self, family, dataset_keys, rng, tmp_path):
        live_dir = tmp_path / "live"
        with scoped_registry(MetricsRegistry(enabled=True)) as registry:
            live = IndexService.build(
                dataset_keys, family=family, n_shards=N_SHARDS, values=dataset_keys * 3 + 1,
                alpha=ALPHA, store=DurableStore(live_dir), flush_threshold=40,
            )
            rebases = np.zeros(N_SHARDS, dtype=np.int64)
            rebase = live.store.rebase

            def counted(shard, *args):
                rebases[shard] += 1
                return rebase(shard, *args)

            live.store.rebase = counted
            stored = dataset_keys
            for round_no in range(8):
                batch = writes(rng, stored)
                live.insert_many(batch, batch + round_no)
                stored = np.union1d(stored, batch)
            live.insert_many(stored[::23] + 1, stored[::23])  # left buffered, then flushed
            live.flush_durable()
            assert bool(np.all(rebases >= 2))
            assert live.store.runs_outstanding() > 0
            shutil.copytree(live_dir, tmp_path / "crashed")  # a power cut: no close()
            smoothed = smooth_runs(registry)
            reopened = IndexService.open_snapshot(tmp_path / "crashed")
            assert smooth_runs(registry) == smoothed
        generation = reopened.durable_generation()
        assert reopened.flush_durable() == generation
        assert reopened.stats.merges == 0
        assert reopened.buffered_counts() == live.buffered_counts()
        absent = np.setdiff1d(rng.integers(int(stored[0]), int(stored[-1]), 500), stored)
        for queries in (stored, stored + 1, absent):
            got, want = reopened.lookup_many(queries), live.lookup_many(queries)
            for field in ("found", "values", "levels", "search_steps"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert_same_arrays(reopened, live)

    def test_a_directory_with_runs_past_the_threshold(self, family, dataset_keys, rng, tmp_path):
        """The layout written before merges rebased their shard: bases
        without a record, runs on them past the staleness threshold.
        The reopen merges those shards and answers as a dict does."""
        values = dataset_keys * 3 + 1
        write_without_csv(tmp_path / "old", dataset_keys, values, family)
        store = DurableStore(tmp_path / "old")
        content = dict(zip(dataset_keys.tolist(), values.tolist()))
        for round_no in range(2):
            batch = writes(rng, dataset_keys)
            shard_of = np.searchsorted(store.manifest.boundaries, batch, side="right")
            store.append_runs({
                shard: (batch[shard_of == shard], batch[shard_of == shard] + round_no)
                for shard in range(N_SHARDS)
            })
            content.update(zip(batch.tolist(), (batch + round_no).tolist()))
        with IndexService.open_snapshot(tmp_path / "old") as reopened:
            assert reopened.stats.merges == N_SHARDS
            assert reopened.store.runs_outstanding() == 0
            want_keys = np.asarray(sorted(content), dtype=np.int64)
            got = reopened.lookup_many(np.concatenate([want_keys, want_keys + 1]))
            found = want_keys.size
            assert bool(got.found[:found].all())
            assert got.values[:found].tolist() == [content[k] for k in want_keys.tolist()]
            assert got.found[found:].tolist() == [k + 1 in content for k in want_keys.tolist()]


@pytest.mark.parametrize("family", ["alex", "lipp"])
def test_a_merge_leaves_no_deeper_keys_than_merging_in_place(family, dataset_keys, rng):
    """Σ key levels of a shard merged by the service are at most those
    of the same shard after ``bulk_insert_many`` of the same buffer and
    CSV again."""
    values = dataset_keys * 3 + 1
    with IndexService.build(
        dataset_keys, family=family, n_shards=1, values=values, alpha=ALPHA,
        staleness_threshold=10.0,
    ) as service:
        in_place = INDEX_FAMILIES[family].build(dataset_keys, values)
        apply_csv(adapter_for(in_place), CsvConfig(alpha=ALPHA))
        batch = writes(rng, dataset_keys)
        service.insert_many(batch, -batch)
        in_place.bulk_insert_many(np.unique(batch), -np.unique(batch))
        apply_csv(adapter_for(in_place), CsvConfig(alpha=ALPHA))
        service.flush()
        keys = np.union1d(dataset_keys, batch)
        merged = service.router.shards[0]
        assert merged.key_levels(keys).sum() <= in_place.key_levels(keys).sum()
