"""The served families on the paper's four dataset analogues.

The write, range and smoothing paths of LIPP, SALI and ALEX are
otherwise held to their oracles on the suite's random fixtures.  Here
each runs on the Facebook-, Covid-, OSM- and genome-like keys of
:mod:`repro.datasets.synthetic` — near-linear, clustered and blocky
CDFs, which drive the structures down different paths (conflict
chains, deep subtrees, data-node expands) — and every answer is held
to a plain dict or to the per-key loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CsvConfig, apply_csv
from repro.datasets import DATASETS, generate
from repro.indexes import CSV_FAMILIES, INDEX_FAMILIES, adapter_for

N_KEYS = 2_000


@pytest.fixture(params=sorted(DATASETS))
def dataset_keys(request) -> np.ndarray:
    return generate(request.param, N_KEYS, 7)


def fresh_keys(rng, keys: np.ndarray, n: int) -> np.ndarray:
    """Unstored keys inside the dataset's span and right beside
    stored ones (in the dense runs), plus a few past either end."""
    lo, hi = int(keys[0]), int(keys[-1])
    candidates = np.concatenate([
        rng.integers(lo, hi, n),
        rng.choice(keys, n // 4) + 1,
        np.asarray([lo - 7, hi + 7]),
    ])
    return np.setdiff1d(candidates, keys)


def bounds(keys: np.ndarray) -> list[tuple[int, int]]:
    """Interior, wide, single-key, between-keys, past-the-end, inverted
    and whole-span ranges."""
    return [
        (int(keys[100]), int(keys[400])),
        (int(keys[10]), int(keys[-10])),
        (int(keys[777]), int(keys[777])),
        (int(keys[3]) + 1, int(keys[4]) - 1),
        (int(keys[-1]) + 1, int(keys[-1]) + 1_000),
        (int(keys[400]), int(keys[100])),
        (int(keys[0]) - 1, int(keys[-1]) + 1),
    ]


def oracle_range(content: dict[int, int], low: int, high: int) -> list[tuple[int, int]]:
    return sorted((k, v) for k, v in content.items() if low <= k <= high)


def assert_holds(index, content: dict[int, int], range_pairs) -> None:
    """*index* stores exactly *content*: key count, ordered walk, point
    lookups and the whole-span range."""
    want_keys = np.asarray(sorted(content), dtype=np.int64)
    assert index.n_keys == want_keys.size
    assert np.array_equal(np.fromiter(index.iter_keys(), dtype=np.int64), want_keys)
    got = index.lookup_many(want_keys)
    assert bool(got.found.all())
    assert got.values.tolist() == [content[k] for k in want_keys.tolist()]
    low, high = int(want_keys[0]), int(want_keys[-1])
    assert range_pairs(index.range_query(low, high)) == oracle_range(content, low, high)


@pytest.mark.parametrize("family", sorted(CSV_FAMILIES))
class TestServedFamilyOnDataset:
    def test_lookup_many_equals_per_key_lookups(self, family, dataset_keys, rng):
        """Two twins: SALI's access tracking mutates on lookups."""
        queries = np.concatenate([rng.choice(dataset_keys, 400), fresh_keys(rng, dataset_keys, 200)])
        rng.shuffle(queries)
        loop_index = INDEX_FAMILIES[family].build(dataset_keys, dataset_keys * 3 + 1)
        batch_index = INDEX_FAMILIES[family].build(dataset_keys, dataset_keys * 3 + 1)
        scalar = [loop_index.lookup_stats(int(k)) for k in queries]
        batch = batch_index.lookup_many(queries)
        for i, s in enumerate(scalar):
            got = batch.stat(i)
            assert (got.key, got.found, got.value, got.levels, got.search_steps) == (
                s.key, s.found, s.value, s.levels, s.search_steps,
            ), f"query {i} ({s.key}) diverged"

    def test_range_query_equals_the_oracle(self, family, dataset_keys, range_pairs):
        index = INDEX_FAMILIES[family].build(dataset_keys, dataset_keys * 3 + 1)
        content = dict(zip(dataset_keys.tolist(), (dataset_keys * 3 + 1).tolist()))
        for low, high in bounds(dataset_keys):
            assert range_pairs(index.range_query(low, high)) == oracle_range(content, low, high)

    def test_bulk_insert_equals_the_per_key_loop(self, family, dataset_keys, rng, insert_each, range_pairs):
        """Fresh keys, overwrites and in-batch duplicates (last wins)."""
        fresh = fresh_keys(rng, dataset_keys, 600)
        batch = np.concatenate([fresh, rng.choice(dataset_keys, 200), fresh[:50]])
        rng.shuffle(batch)
        values = rng.integers(-(1 << 40), 1 << 40, batch.size)
        loop_index = INDEX_FAMILIES[family].build(dataset_keys)
        bulk_index = INDEX_FAMILIES[family].build(dataset_keys)
        insert_each(loop_index, batch, values)
        bulk_index.bulk_insert_many(batch, values)
        content = dict(zip(dataset_keys.tolist(), dataset_keys.tolist()))
        content.update(zip(batch.tolist(), values.tolist()))
        assert_holds(loop_index, content, range_pairs)
        assert_holds(bulk_index, content, range_pairs)

    def test_csv_keeps_every_key_and_range(self, family, dataset_keys, rng, range_pairs):
        """Smoothing rebuilds nodes around virtual points; it stores no
        key and loses none, and misses stay misses."""
        index = INDEX_FAMILIES[family].build(dataset_keys, dataset_keys * 3 + 1)
        report = apply_csv(adapter_for(index), CsvConfig(alpha=0.1))
        assert report.nodes_rebuilt > 0 and report.virtual_points_inserted > 0
        content = dict(zip(dataset_keys.tolist(), (dataset_keys * 3 + 1).tolist()))
        assert_holds(index, content, range_pairs)
        assert not index.lookup_many(fresh_keys(rng, dataset_keys, 300)).found.any()
        for low, high in bounds(dataset_keys):
            assert range_pairs(index.range_query(low, high)) == oracle_range(content, low, high)

    def test_writes_after_csv_match_a_dict_oracle(self, family, dataset_keys, rng, insert_each, range_pairs):
        """Per-key inserts and then a bulk merge into a smoothed index,
        new keys landing among its virtual points."""
        index = INDEX_FAMILIES[family].build(dataset_keys)
        assert apply_csv(adapter_for(index), CsvConfig(alpha=0.1)).virtual_points_inserted > 0
        content = dict(zip(dataset_keys.tolist(), dataset_keys.tolist()))
        fresh = fresh_keys(rng, dataset_keys, 800)
        rng.shuffle(fresh)
        one_by_one = np.concatenate([fresh[:200], rng.choice(dataset_keys, 50)])
        insert_each(index, one_by_one, -one_by_one)
        content.update(zip(one_by_one.tolist(), (-one_by_one).tolist()))
        batch = np.concatenate([fresh[200:], rng.choice(dataset_keys, 100)])
        index.bulk_insert_many(batch, batch * 5)
        content.update(zip(batch.tolist(), (batch * 5).tolist()))
        assert_holds(index, content, range_pairs)
