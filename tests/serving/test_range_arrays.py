"""Ranges as arrays, layer by layer, against the pair lists they replaced.

Every served family's ``range_query``, ``ShardRouter.range_query`` and
``IndexService.range_arrays`` return ``(keys, values)`` int64 arrays;
``IndexService.range_query`` is their one list form.  The oracles below
are the list-building paths those arrays replaced, kept here: a shard's
ordered walk resolved key by key, the router's per-shard extend, and the
service's overlay of every memtable's in-range slice onto the router's
pairs by one last-wins dedupe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.indexes import CSV_FAMILIES, INDEX_FAMILIES
from repro.indexes.base import dedupe_last_wins
from repro.serving import IndexService

FAMILIES = sorted(CSV_FAMILIES)
N_SHARDS = 4
INT64 = np.iinfo(np.int64)


def list_range(index, low: int, high: int) -> list[tuple[int, int]]:
    """A shard's pairs in ``[low, high]``: the ordered walk."""
    return [(key, index.lookup(key)) for key in index.iter_keys() if low <= key <= high]


def list_router_range(router, low: int, high: int) -> list[tuple[int, int]]:
    """The router's pairs: every shard's list, extended in shard order."""
    out: list[tuple[int, int]] = []
    for shard in router.shards:
        if shard is not None:
            out.extend(list_range(shard, low, high))
    return out


def list_service_range(service: IndexService, low: int, high: int) -> list[tuple[int, int]]:
    """The service's pairs: the router's list, overlaid with in-range
    buffered writes through a pair array and back."""
    pairs = list_router_range(service.router, low, high)
    key_parts, value_parts = [], []
    for buffer in service._buffers:
        bkeys, bvals = buffer.arrays()
        inside = (bkeys >= low) & (bkeys <= high)
        key_parts.append(bkeys[inside])
        value_parts.append(bvals[inside])
    if not sum(part.size for part in key_parts):
        return pairs
    stored = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    keys, values = dedupe_last_wins(
        np.concatenate([stored[0], *key_parts]), np.concatenate([stored[1], *value_parts])
    )
    return list(zip(keys.tolist(), values.tolist()))


def _bounds(keys: np.ndarray) -> list[tuple[int, int]]:
    """Interior, cross-shard, single-key, between-keys, empty, inverted
    and beyond-int64 ranges."""
    return [
        (int(keys[10]), int(keys[40])),
        (int(keys[100]), int(keys[-100])),
        (int(keys[7]), int(keys[7])),
        (int(keys[3]) + 1, int(keys[4]) - 1),
        (int(keys[-1]) + 1, int(keys[-1]) + 100),
        (int(keys[40]), int(keys[10])),
        (int(INT64.min), int(INT64.max)),
        (-(10**30), 10**30),
        (2**63, 2**64),
        (-(2**64), -(2**63) - 1),
    ]


@pytest.fixture()
def keys(rng) -> np.ndarray:
    return np.unique(rng.integers(0, 10**7, 1_500))


def _writes(rng, keys: np.ndarray, service: IndexService, shards: list[int]) -> np.ndarray:
    """Fresh keys and overwrites, only in *shards*."""
    fresh = np.setdiff1d(rng.integers(0, 10**7, 300), keys)
    batch = np.concatenate([fresh, keys[::7]])
    return batch[np.isin(service.router.shard_of(batch), shards)]


@pytest.mark.parametrize("family", FAMILIES)
class TestRangeArrays:
    def test_every_shard_equals_its_walk(self, keys, family, range_pairs):
        index = INDEX_FAMILIES[family].build(keys, keys * 3 + 1)
        for low, high in _bounds(keys):
            assert range_pairs(index.range_query(low, high)) == list_range(index, low, high)

    @pytest.mark.parametrize("buffered", ["empty", "partial", "all"])
    def test_router_and_service_equal_their_lists(self, rng, keys, family, buffered, range_pairs):
        with IndexService.build(
            keys, family=family, n_shards=N_SHARDS, values=keys * 3 + 1,
            staleness_threshold=10.0,  # writes stay in the memtables
        ) as service:
            shards = {"empty": [], "partial": [0, 2], "all": list(range(N_SHARDS))}[buffered]
            batch = _writes(rng, keys, service, shards)
            service.insert_many(batch, -batch)
            counts = service.buffered_counts()
            assert [n > 0 for n in counts] == [s in shards for s in range(N_SHARDS)]
            for low, high in _bounds(keys):
                routed = range_pairs(service.router.range_query(low, high))
                assert routed == list_router_range(service.router, low, high)
                want = list_service_range(service, low, high)
                assert range_pairs(service.range_arrays(low, high)) == want
                assert service.range_query(low, high) == want
