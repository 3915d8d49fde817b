"""``key_levels``: the one level probe, a batch lookup over stored keys.

Every family answers it with ``lookup_many(keys).levels`` (LIPP and
SALI untracked); the scalar ``key_level`` is one key of it, and
``lookup_stats`` stays the per-key oracle.  A key that is not stored
has no level: both forms raise, naming the first such key.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.csv_algorithm import CsvConfig, apply_csv
from repro.core.exceptions import IndexStateError
from repro.datasets import generate
from repro.indexes import INDEX_FAMILIES, SaliIndex
from repro.indexes.adapters import adapter_for

FAMILIES = sorted(INDEX_FAMILIES)
KEYS = np.arange(0, 20_000, 7, dtype=np.int64)
ABSENT = 3


@pytest.mark.parametrize("family", FAMILIES)
def test_levels_are_the_batch_lookups_levels(family):
    index = INDEX_FAMILIES[family].build(KEYS)
    levels = index.key_levels(KEYS)
    assert np.array_equal(levels, index.lookup_many(KEYS).levels)
    probe = KEYS[::97].tolist()
    assert [index.key_level(k) for k in probe] == [index.lookup_stats(k).levels for k in probe]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("form", ["scalar", "batch"])
def test_an_absent_key_has_no_level(family, form):
    index = INDEX_FAMILIES[family].build(KEYS)
    with pytest.raises(IndexStateError, match=f"key {ABSENT} is not stored"):
        if form == "scalar":
            index.key_level(ABSENT)
        else:
            index.key_levels(np.asarray([KEYS[0], ABSENT, 5]))


@pytest.mark.parametrize("family", ["lipp", "sali", "alex"])
@pytest.mark.parametrize("dataset", ["osm", "genome"])
def test_levels_after_csv_match_the_scalar_walk(family, dataset):
    keys = generate(dataset, 4_000, 1)
    index = INDEX_FAMILIES[family].build(keys)
    apply_csv(adapter_for(index), CsvConfig(alpha=0.1))
    want = [index.lookup_stats(k).levels for k in keys.tolist()]
    assert index.key_levels(keys).tolist() == want


def test_sali_levels_leave_the_tracker_alone():
    index = SaliIndex.build(KEYS)
    index.lookup_many(KEYS[:500])

    def credit():
        return index.tracker.total_queries, [n.access_count for n in index.root.walk()]

    held = credit()
    index.key_levels(KEYS)
    index.key_level(int(KEYS[10]))
    assert credit() == held
    index.lookup_many(KEYS[:1])  # a lookup does credit, so the check can fail
    assert credit() != held
