"""Cross-backend range-query parity tests.

Every served family answers ``range_query`` (the read-only baselines
do not), and all of them must agree with the brute-force oracle — the
serving layer's range path sits on this contract.  An answer is two int64 arrays; ``range_pairs``
checks that and turns them into the oracle's pair list.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.indexes import AlexIndex, LippIndex, SaliIndex
from repro.indexes.base import range_slice

INT64 = np.iinfo(np.int64)
ALL_BACKENDS = [AlexIndex, LippIndex, SaliIndex]


def oracle(keys: np.ndarray, low: int, high: int) -> list[tuple[int, int]]:
    return [(int(k), int(k)) for k in keys if low <= k <= high]


@pytest.mark.parametrize("cls", ALL_BACKENDS, ids=lambda c: c.name)
class TestRangeQueries:
    def test_interior_range(self, cls, clustered_keys, range_pairs):
        index = cls.build(clustered_keys)
        low, high = int(clustered_keys[100]), int(clustered_keys[400])
        assert range_pairs(index.range_query(low, high)) == oracle(clustered_keys, low, high)

    def test_full_range(self, cls, small_keys, range_pairs):
        index = cls.build(small_keys)
        out = range_pairs(index.range_query(int(small_keys[0]), int(small_keys[-1])))
        assert out == oracle(small_keys, int(small_keys[0]), int(small_keys[-1]))

    def test_empty_range(self, cls, small_keys, range_pairs):
        index = cls.build(small_keys)
        assert range_pairs(index.range_query(int(small_keys[-1]) + 1, int(small_keys[-1]) + 100)) == []

    def test_single_key_range(self, cls, small_keys, range_pairs):
        index = cls.build(small_keys)
        key = int(small_keys[7])
        assert range_pairs(index.range_query(key, key)) == [(key, key)]

    def test_bounds_between_keys(self, cls, small_keys, range_pairs):
        index = cls.build(small_keys)
        low = int(small_keys[3]) + 1
        high = int(small_keys[10]) - 1
        assert range_pairs(index.range_query(low, high)) == oracle(small_keys, low, high)


@pytest.mark.parametrize("cls", ALL_BACKENDS, ids=lambda c: c.name)
class TestRangeAfterInserts:
    def test_range_after_inserts(self, cls, insert_each, small_keys, rng, range_pairs):
        index = cls.build(small_keys)
        new = np.setdiff1d(np.unique(rng.integers(0, 10**8, 200)), small_keys)
        rng.shuffle(new)
        insert_each(index, new[:100])
        index.bulk_insert_many(new[100:])
        combined = np.sort(np.concatenate([small_keys, new]))
        low, high = int(combined[20]), int(combined[-20])
        assert range_pairs(index.range_query(low, high)) == oracle(combined, low, high)


class TestRangeAfterCsv:
    @pytest.mark.parametrize("cls", [LippIndex, AlexIndex, SaliIndex])
    def test_range_preserved_by_csv(self, cls, clustered_keys, range_pairs):
        from repro.core import CsvConfig, apply_csv
        from repro.indexes import adapter_for

        index = cls.build(clustered_keys)
        apply_csv(adapter_for(index), CsvConfig(alpha=0.1))
        low, high = int(clustered_keys[50]), int(clustered_keys[700])
        assert range_pairs(index.range_query(low, high)) == oracle(clustered_keys, low, high)


class TestSaliFlattenedRange:
    def test_range_spans_flattened_subtrees(self, clustered_keys, rng, range_pairs):
        index = SaliIndex.build(clustered_keys)
        # Heat a slice of the key space so a subtree flattens.
        hot = rng.choice(clustered_keys[:800], 3000)
        index.lookup_many(hot)
        flattened = index.flatten_hot_subtrees(min_probability=0.01)
        assert flattened > 0
        low, high = int(clustered_keys[50]), int(clustered_keys[-50])
        assert range_pairs(index.range_query(low, high)) == oracle(clustered_keys, low, high)


class TestBoundsBeyondInt64:
    """A bound past int64 is clamped before ``searchsorted``, which
    would compare it as a float: ``2**63`` then sorts at or before the
    key ``2**63 - 1``, and a range above every key returned the last."""

    EDGES = np.asarray([INT64.min, INT64.min + 1, -1, 0, INT64.max - 1, INT64.max], dtype=np.int64)

    @pytest.mark.parametrize(
        "low, high, want",
        [
            (2**63, 2**64, slice(0, 0)),
            (-(2**64), -(2**63) - 1, slice(0, 0)),
            (-(10**30), 10**30, slice(0, 6)),
            (int(INT64.max), 2**63, slice(5, 6)),
            (-(2**63) - 1, int(INT64.min), slice(0, 1)),
            (5, -5, slice(0, 0)),
        ],
    )
    def test_range_slice(self, low, high, want):
        assert range_slice(self.EDGES, low, high) == want

    @pytest.mark.parametrize("cls", [AlexIndex, LippIndex, SaliIndex], ids=lambda c: c.name)
    def test_a_range_above_every_key_is_empty(self, cls, range_pairs):
        index = cls.build(self.EDGES, self.EDGES // 2)
        assert range_pairs(index.range_query(2**63, 2**64)) == []
        assert range_pairs(index.range_query(-(2**64), -(2**63) - 1)) == []
        assert range_pairs(index.range_query(int(INT64.max), 2**63)) == [
            (int(INT64.max), int(INT64.max) // 2)
        ]
