"""Parity suite for the vectorised bulk-ingest path.

``bulk_insert_many`` is *content*-equivalent to a per-key ``insert``
loop (the shared ``insert_each`` helper, run on a twin built from the
same keys): after both, an index holds exactly the same key
set and every key looks up to the same value.  The physical layout may
differ (bulk rebuilds produce fresh, well-packed nodes), so parity is
asserted through the lookup interface — found flags and values over
the full merged key set, plus agreeing misses — not through structural
counters.  Covers duplicate keys (within the batch and against stored
keys), boundary-straddling batches, and the empty-index bulk-load
case.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.indexes import INDEX_FAMILIES
from repro.indexes.alex.data_node import AlexDataNode
from repro.indexes.alex.index import AlexIndex
from repro.indexes.lipp.index import LippIndex
from repro.indexes.lipp.node import DEFAULT_SLOT_FACTOR, LippNode
from repro.indexes.sali.index import SaliIndex

BULK_FAMILIES = ("alex", "lipp", "sali")

_EMPTY = np.empty(0, dtype=np.int64)


def _empty_index(family):
    """An empty index of *family* (build() requires non-empty keys)."""
    if family == "alex":
        return AlexIndex(AlexDataNode.from_sorted(_EMPTY, _EMPTY, level=1))
    root = LippNode.from_keys(_EMPTY, _EMPTY, level=1)
    if family == "lipp":
        return LippIndex(root, DEFAULT_SLOT_FACTOR)
    assert family == "sali"
    return SaliIndex(root, DEFAULT_SLOT_FACTOR)


def assert_content_parity(loop_index, bulk_index, miss_probes=None):
    """Both indexes must hold identical (key, value) contents."""
    loop_keys = np.fromiter(loop_index.iter_keys(), dtype=np.int64)
    bulk_keys = np.fromiter(bulk_index.iter_keys(), dtype=np.int64)
    assert np.array_equal(loop_keys, bulk_keys)
    assert loop_index.n_keys == bulk_index.n_keys == loop_keys.size
    if loop_keys.size:
        loop_batch = loop_index.lookup_many(loop_keys)
        bulk_batch = bulk_index.lookup_many(loop_keys)
        assert bool(np.all(loop_batch.found))
        assert bool(np.all(bulk_batch.found))
        assert np.array_equal(loop_batch.values, bulk_batch.values)
    if miss_probes is not None and miss_probes.size:
        assert not np.any(loop_index.lookup_many(miss_probes).found)
        assert not np.any(bulk_index.lookup_many(miss_probes).found)


@pytest.fixture()
def base_keys(rng):
    return np.unique(rng.integers(10_000, 1_000_000, 2_000))


class TestBulkParity:
    @pytest.mark.parametrize("family", BULK_FAMILIES)
    def test_fresh_sorted_batch(self, insert_each, family, base_keys, rng):
        fresh = np.setdiff1d(rng.integers(10_000, 1_000_000, 3_000), base_keys)
        loop_index = INDEX_FAMILIES[family].build(base_keys)
        bulk_index = INDEX_FAMILIES[family].build(base_keys)
        insert_each(loop_index, fresh, fresh * 3)
        bulk_index.bulk_insert_many(fresh, fresh * 3)
        miss = np.setdiff1d(
            rng.integers(0, 2_000_000, 200), np.concatenate([base_keys, fresh])
        )
        assert_content_parity(loop_index, bulk_index, miss)

    @pytest.mark.parametrize("family", BULK_FAMILIES)
    def test_unsorted_batch_with_duplicates(self, insert_each, family, base_keys, rng):
        """Internal duplicates resolve last-wins; stored keys are
        overwritten — exactly as the sequential loop does it."""
        fresh = np.setdiff1d(rng.integers(10_000, 1_000_000, 800), base_keys)
        overwrite = rng.choice(base_keys, 300)
        batch = np.concatenate([fresh, overwrite, fresh[:200], fresh[:50]])
        rng.shuffle(batch)
        values = rng.integers(0, 1 << 40, batch.size)
        loop_index = INDEX_FAMILIES[family].build(base_keys)
        bulk_index = INDEX_FAMILIES[family].build(base_keys)
        insert_each(loop_index, batch, values)
        bulk_index.bulk_insert_many(batch, values)
        assert_content_parity(loop_index, bulk_index)
        # Spot-check last-wins directly: the final occurrence of a
        # duplicated key in batch order is the stored value.
        dup_key = int(batch[-1])
        last_value = int(values[np.nonzero(batch == dup_key)[0][-1]])
        assert bulk_index.lookup(dup_key) == last_value

    @pytest.mark.parametrize("family", BULK_FAMILIES)
    def test_boundary_straddling_batch(self, insert_each, family, base_keys, rng):
        """Keys strictly below the stored minimum and above the stored
        maximum (plus the extremes themselves) must merge cleanly."""
        lo, hi = int(base_keys[0]), int(base_keys[-1])
        batch = np.concatenate([
            np.arange(lo - 40, lo + 3),          # straddles the minimum
            np.arange(hi - 2, hi + 40),          # straddles the maximum
            rng.integers(lo, hi, 100),           # interior (may collide)
        ])
        rng.shuffle(batch)
        loop_index = INDEX_FAMILIES[family].build(base_keys)
        bulk_index = INDEX_FAMILIES[family].build(base_keys)
        insert_each(loop_index, batch)
        bulk_index.bulk_insert_many(batch)
        assert_content_parity(loop_index, bulk_index)
        assert bulk_index.lookup(lo - 40) == lo - 40
        assert bulk_index.lookup(hi + 39) == hi + 39

    @pytest.mark.parametrize("family", BULK_FAMILIES)
    def test_empty_index_bulk_load(self, insert_each, family, rng):
        """Bulk into an empty index is a pure bulk load."""
        batch = rng.integers(0, 10**7, 4_000)
        values = rng.integers(0, 1 << 40, batch.size)
        bulk_index = _empty_index(family)
        bulk_index.bulk_insert_many(batch, values)
        loop_index = _empty_index(family)
        insert_each(loop_index, batch, values)
        assert_content_parity(loop_index, bulk_index)

    @pytest.mark.parametrize("family", BULK_FAMILIES)
    def test_empty_batch_is_noop(self, family, base_keys):
        index = INDEX_FAMILIES[family].build(base_keys)
        index.bulk_insert_many(np.empty(0, dtype=np.int64))
        assert index.n_keys == base_keys.size

    @pytest.mark.parametrize("family", BULK_FAMILIES)
    def test_repeated_bulk_is_stable(self, family, base_keys, rng):
        """Re-ingesting the same batch only overwrites values."""
        batch = rng.choice(base_keys, 500)
        index = INDEX_FAMILIES[family].build(base_keys)
        index.bulk_insert_many(batch, batch + 1)
        n_after_first = index.n_keys
        index.bulk_insert_many(batch, batch + 2)
        assert index.n_keys == n_after_first == base_keys.size
        probe = index.lookup_many(np.unique(batch))
        assert bool(np.all(probe.found))
        assert np.array_equal(probe.values, np.unique(batch) + 2)

    @pytest.mark.parametrize("family", BULK_FAMILIES)
    def test_large_dense_batch(self, insert_each, family, rng):
        """A batch several times the index size (the merge-heavy
        regime the bulk path exists for) keeps exact content parity."""
        universe = np.unique(rng.integers(0, 10**8, 14_000))
        rng.shuffle(universe)
        base = np.sort(universe[:2_000])
        batch = np.sort(universe[2_000:12_000])
        loop_index = INDEX_FAMILIES[family].build(base)
        bulk_index = INDEX_FAMILIES[family].build(base)
        insert_each(loop_index, batch)
        bulk_index.bulk_insert_many(batch)
        assert_content_parity(loop_index, bulk_index)


def _force_flatten(index, limit=3) -> int:
    """Deterministically flatten up to *limit* root-child subtrees
    (what ``flatten_hot_subtrees`` does, minus the access tracker)."""
    from repro.indexes.sali.flatten import FlattenedNode

    root = index.root
    count = 0
    for slot, child in sorted(root.children.items()):
        if isinstance(child, LippNode) and child.has_subtree and child.n_subtree_keys >= 8:
            keys, values = child.collect_arrays()
            flat = FlattenedNode(keys, values, child.level, index._flatten_epsilon)
            flat.parent = root
            flat.parent_slot = slot
            root.children[slot] = flat
            count += 1
            if count >= limit:
                break
    index.invalidate_flat()  # hand surgery: a built index has a view to drop
    return count


class TestSaliFlattenedBulk:
    def test_bulk_into_flattened_subtree(self, insert_each, clustered_keys, rng):
        """Bulk ingest through flattened SALI subtrees keeps content
        parity with the per-key loop."""
        loop_index = INDEX_FAMILIES["sali"].build(clustered_keys)
        bulk_index = INDEX_FAMILIES["sali"].build(clustered_keys)
        assert _force_flatten(loop_index) == _force_flatten(bulk_index) > 0
        # Sparse enough that the root descends instead of rebuilding.
        fresh = np.setdiff1d(
            rng.integers(int(clustered_keys[0]), int(clustered_keys[-1]), 500),
            clustered_keys,
        )[:400]
        insert_each(loop_index, fresh)
        bulk_index.bulk_insert_many(fresh)
        assert_content_parity(loop_index, bulk_index)

    def test_flattened_node_survives_sparse_bulk(self, clustered_keys, rng):
        """A sparse batch routed into a flattened leaf rebuilds it *as
        a flattened node* (the adaptation is preserved, its
        segmentation refreshed in one pass)."""
        index = INDEX_FAMILIES["sali"].build(clustered_keys)
        before = _force_flatten(index)
        assert before > 0
        flat = index.flattened_nodes()[0]
        gaps = np.nonzero(np.diff(flat.keys) > 1)[0]
        assert gaps.size, "flattened span has no free keys to insert"
        new_keys = np.asarray(
            [int(flat.keys[g]) + 1 for g in gaps[:3]], dtype=np.int64
        )
        index.bulk_insert_many(new_keys)
        assert len(index.flattened_nodes()) == before
        probe = index.lookup_many(new_keys)
        assert bool(np.all(probe.found))
        # The rebuilt flattened node covers the new keys.
        refreshed = [
            f for f in index.flattened_nodes() if f.parent_slot == flat.parent_slot
        ]
        assert refreshed and all(
            int(k) in set(refreshed[0].keys.tolist()) for k in new_keys
        )
