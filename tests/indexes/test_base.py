"""Tests for the shared index interface pieces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cost_model import CostConstants
from repro.core.exceptions import IndexStateError
from repro.indexes import CSV_FAMILIES, INDEX_FAMILIES, AlexIndex, LippIndex, SaliIndex
from repro.indexes.base import LearnedIndex, QueryStats, prepare_key_values
from repro.indexes.sorted_array import SortedArrayIndex
from repro.serving import IndexService


class TestQueryStats:
    def test_simulated_ns_uses_constants(self):
        stats = QueryStats(key=1, found=True, value=1, levels=2, search_steps=3)
        consts = CostConstants(traversal_ns=10.0, search_ns=5.0, base_ns=1.0)
        assert stats.simulated_ns(consts) == pytest.approx(1 + 20 + 15)

    def test_default_constants(self):
        stats = QueryStats(key=1, found=False, value=None, levels=1, search_steps=0)
        assert stats.simulated_ns() == pytest.approx(
            CostConstants().base_ns + CostConstants().traversal_ns
        )

    def test_frozen(self):
        stats = QueryStats(key=1, found=True, value=1, levels=1, search_steps=0)
        with pytest.raises(AttributeError):
            stats.levels = 5  # type: ignore[misc]


class TestPrepareKeyValues:
    def test_default_values_are_keys(self):
        keys, values = prepare_key_values([1, 5, 9])
        assert values.tolist() == [1, 5, 9]

    def test_explicit_values(self):
        __, values = prepare_key_values([1, 2], [10, 20])
        assert values.tolist() == [10, 20]

    def test_rejects_mismatched_values(self):
        with pytest.raises(IndexStateError):
            prepare_key_values([1, 2], [10])


#: Values no int64 slot can hold as given: a cast would truncate the
#: floats and wrap the uint64 past the int64 maximum.
UNSTORABLE_VALUES = {
    "float": lambda keys: keys + 0.7,
    "uint64_above_int64": lambda keys: np.full(keys.size, 2**63, dtype=np.uint64),
}
BUILDERS = {
    "lipp": LippIndex.build,
    "alex": AlexIndex.build,
    "sali": SaliIndex.build,
    "service": lambda keys, values: IndexService.build(keys, n_shards=2, values=values),
}


class TestBuildRefusesUnstorableValues:
    """``build`` refuses what every write path refuses, instead of
    storing ``int(3.7) == 3`` or ``-2**63`` for ``2**63``."""

    @pytest.mark.parametrize("values", sorted(UNSTORABLE_VALUES))
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_build_raises(self, builder, values):
        keys = np.arange(0, 600, 3, dtype=np.int64)
        with pytest.raises(IndexStateError, match="values"):
            BUILDERS[builder](keys, UNSTORABLE_VALUES[values](keys))

    def test_uint64_within_int64_is_widened(self):
        keys = np.arange(0, 600, 3, dtype=np.int64)
        index = LippIndex.build(keys, np.full(keys.size, 2**63 - 1, dtype=np.uint64))
        assert index.lookup(3) == 2**63 - 1


class TestBaseHelpers:
    def test_contains(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        assert int(small_keys[3]) in index
        assert (int(small_keys[0]) - 1) not in index

    def test_verify_against_passes(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        index.verify_against(small_keys, small_keys)

    def test_verify_against_detects_corruption(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        wrong = small_keys.copy() + 1
        with pytest.raises(IndexStateError):
            index.verify_against(small_keys, wrong)

    def test_key_levels_vectorises(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        levels = index.key_levels(small_keys[:5])
        assert levels.tolist() == [1] * 5

    def test_batch_stats_order(self, small_keys):
        index = SortedArrayIndex.build(small_keys)
        batch = index.lookup_many(small_keys[:4])
        assert [batch.stat(i).key for i in range(4)] == small_keys[:4].tolist()


WRITE_AND_RANGE = ("insert", "bulk_insert_many", "range_query")


class TestWriteAndRangeSurface:
    """Writes and ranges are declared where they are implemented: on
    the three CSV families, not on the base class or a baseline."""

    def test_the_base_class_declares_none(self):
        assert not any(hasattr(LearnedIndex, name) for name in WRITE_AND_RANGE)

    @pytest.mark.parametrize("family", sorted(set(INDEX_FAMILIES) - set(CSV_FAMILIES)))
    def test_a_baseline_is_read_only(self, family):
        assert not any(hasattr(INDEX_FAMILIES[family], name) for name in WRITE_AND_RANGE)
