"""The sharded service over each served family, on the paper's four
dataset analogues.

Shards are smoothed (α = 0.1) as ``repro serve`` smooths them, and the
Facebook-, Covid-, OSM- and genome-like keys of
:mod:`repro.datasets.synthetic` place the shard boundaries and the
buffered writes unevenly.  Every answer — point lookups, ranges,
merged memtables and a reopened snapshot — is held to a plain dict.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import DATASETS, generate
from repro.indexes import CSV_FAMILIES, INDEX_FAMILIES
from repro.serving import IndexService
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
