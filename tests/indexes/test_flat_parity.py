"""Property-based parity of the LIPP/SALI flat view with the node tree.

The flat level-ordered representation (:mod:`repro.indexes.lipp.flat`)
is the only batch representation of a LIPP/SALI tree, so every batch
answer is checked against something that never touches it.  Hypothesis
drives the comparison across random key distributions, duplicates,
inserts, sparse and dense bulk merges, CSV-smoothed builds and SALI's
hot-subtree flattening.

Oracles:

* ``lookup_many`` — the scalar walk on the *same* tree:
  ``LearnedIndex.lookup_many(index, q)``, the base-class loop over
  ``lookup_stats``.  Exact per-key parity (found / value / level /
  search_steps) for any build + ``insert`` history, and for
  CSV-smoothed trees (quadratic models);
* ``bulk_insert_many`` — a per-key ``insert`` loop on a twin built from
  the same keys: *content* parity (same sorted key set, same values,
  same total key count).  The physical layouts legitimately diverge:
  the bulk path runs the in-place gapped merge or one root rebuild,
  and rebuilt subtrees reset their conflict counters;
* SALI access counts — a twin fed the same queries one ``lookup_stats``
  (``record_path``) at a time;
* ``range_query`` — a filter over the sorted build arrays;
* the structural introspection helpers — :func:`_walk_report`, the same
  figures computed by a ``root.walk()`` over the node objects;
* ``FlatLipp.compile`` — :func:`_assert_compile_parity`: the arrays the
  old compile filled one node at a time (an ``np.full`` and a dict loop
  per node for ``slot_child``), rebuilt from the node objects and
  compared with the ones the single scatter produced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.csv_algorithm import CsvConfig, apply_csv
from repro.indexes.adapters import adapter_for
from repro.indexes.base import (
    MODEL_BYTES,
    NODE_HEADER_BYTES,
    OFFSET_BYTES,
    POINTER_BYTES,
    LearnedIndex,
)
from repro.core.linear_model import QuadraticModel
from repro.indexes.lipp.flat import FLAT_LEAF_BASE, NO_CHILD
from repro.indexes.lipp.index import SLOT_BYTES, LippIndex
from repro.indexes.lipp.node import SLOT_CHILD, SLOT_DATA, SLOT_EMPTY, LippNode
from repro.indexes.sali.index import SaliIndex

INDEX_CLASSES = [LippIndex, SaliIndex]

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

key_lists = st.lists(
    st.integers(min_value=0, max_value=1 << 44), min_size=2, max_size=400
)


def _build(cls, raw_keys):
    keys = np.unique(np.asarray(raw_keys, dtype=np.int64))
    values = np.arange(keys.size, dtype=np.int64) * 3
    return keys, values, cls.build(keys, values)


def _assert_stats_parity(flat_stats, oracle_stats):
    assert np.array_equal(flat_stats.found, oracle_stats.found)
    assert np.array_equal(
        flat_stats.values[flat_stats.found], oracle_stats.values[oracle_stats.found]
    )
    assert np.array_equal(flat_stats.levels, oracle_stats.levels)
    assert np.array_equal(flat_stats.search_steps, oracle_stats.search_steps)


def _assert_lookup_parity(index, q):
    """Flat sweep vs the scalar node walk on the same tree."""
    _assert_stats_parity(index.lookup_many(q), LearnedIndex.lookup_many(index, q))


def _assert_content_parity(index, loop_index):
    keys = np.fromiter(index.iter_keys(), dtype=np.int64)
    loop_keys = np.fromiter(loop_index.iter_keys(), dtype=np.int64)
    assert np.array_equal(keys, loop_keys)
    assert index.n_keys == loop_index.n_keys == keys.size
    if keys.size:
        got = index.lookup_many(keys)
        want = LearnedIndex.lookup_many(loop_index, loop_keys)
        assert bool(np.all(got.found))
        assert np.array_equal(got.values, want.values)


def _walk_report(index) -> dict:
    """The introspection helpers' figures, from the node objects."""
    nodes = list(index.root.walk())
    key_levels: list[tuple[int, int]] = []
    size = empty = slots = 0
    for node in nodes:
        if isinstance(node, LippNode):
            stored = node.slot_keys[node.slot_type == SLOT_DATA].tolist()
            size += NODE_HEADER_BYTES + MODEL_BYTES + OFFSET_BYTES
            size += node.m * SLOT_BYTES + len(node.children) * POINTER_BYTES
            empty += int(np.count_nonzero(node.slot_type == SLOT_EMPTY))
            slots += node.m
        else:  # SALI's flattened leaf
            stored = node.keys.tolist()
            size += node.leaf_size_bytes()
            slots += len(stored)
        key_levels.extend((key, node.level) for key in stored)
    return {
        "height": max(node.level for node in nodes),
        "node_count": len(nodes),
        "node_levels": sorted(node.level for node in nodes),
        "size_bytes": size,
        "empty_slot_fraction": empty / slots if slots else 0.0,
        "key_levels": sorted(key_levels),
    }


def _assert_compile_parity(index):
    """The compiled arrays against a per-node rebuild of them."""
    index.invalidate_flat()
    flat = index._flat_view()
    nodes, leaves = flat.nodes, flat.leaves
    assert nodes[0] is index.root
    assert {id(n) for n in nodes} | {id(n) for n in leaves} == {
        id(n) for n in index.root.walk()
    }
    assert np.all(np.diff(flat.node_level) >= 0)  # level-ordered ids
    node_of = {id(node): i for i, node in enumerate(nodes)}
    leaf_of = {id(leaf): i for i, leaf in enumerate(leaves)}
    child_parts = []
    for i, node in enumerate(nodes):
        model = node.model
        if isinstance(model, QuadraticModel):
            coefficients = (model.a, model.b, model.c)
        else:
            coefficients = (0.0, model.slope, model.intercept)
        assert (flat.node_a[i], flat.node_b[i], flat.node_c[i]) == coefficients
        assert flat.node_pivot[i] == model.pivot and flat.node_level[i] == node.level
        base, end = int(flat.slot_start[i]), int(flat.slot_start[i + 1])
        assert end - base == node.m
        for name in ("slot_type", "slot_keys", "slot_values"):
            buffer = getattr(flat, name)
            assert np.shares_memory(getattr(node, name), buffer[base:end])
            assert np.array_equal(getattr(node, name), buffer[base:end])
        child = np.full(node.m, NO_CHILD, dtype=np.int32)
        for slot, sub in node.children.items():
            if isinstance(sub, LippNode):
                child[slot] = node_of[id(sub)]
            else:
                child[slot] = FLAT_LEAF_BASE - leaf_of[id(sub)]
        child_parts.append(child)
    want = np.concatenate(child_parts)
    assert flat.slot_child.dtype == want.dtype
    assert np.array_equal(flat.slot_child, want)
    assert np.array_equal(flat.slot_child != NO_CHILD, flat.slot_type == SLOT_CHILD)


def _assert_introspection_parity(index):
    _assert_compile_parity(index)
    want = _walk_report(index)
    assert index.height() == want["height"]
    assert index.node_count() == want["node_count"]
    assert sorted(index.node_levels()) == want["node_levels"]
    assert index.size_bytes() == want["size_bytes"]
    assert index.empty_slot_fraction() == pytest.approx(want["empty_slot_fraction"])
    stored = np.asarray([key for key, __ in want["key_levels"]], dtype=np.int64)
    assert index.key_levels(stored).tolist() == [level for __, level in want["key_levels"]]


@pytest.mark.parametrize("cls", INDEX_CLASSES)
class TestLookupParity:
    @SETTINGS
    @given(raw=key_lists, probes=key_lists)
    def test_lookup_many_matches_oracle(self, cls, raw, probes):
        keys, __, index = _build(cls, raw)
        q = np.concatenate([keys, np.asarray(probes, dtype=np.int64)])
        _assert_lookup_parity(index, q)

    @SETTINGS
    @given(raw=key_lists)
    def test_batch_matches_scalar(self, cls, raw):
        keys, __, index = _build(cls, raw)
        q = np.concatenate([keys, keys + 1])
        batch = index.lookup_many(q)
        for j, key in enumerate(q.tolist()):
            scalar = index.lookup_stats(key)
            assert scalar.found == bool(batch.found[j])
            if scalar.found:
                assert scalar.value == int(batch.values[j])
            assert scalar.levels == int(batch.levels[j])
            assert scalar.search_steps == int(batch.search_steps[j])

    @SETTINGS
    @given(raw=key_lists, extra=key_lists)
    def test_insert_history_parity(self, cls, raw, extra):
        keys, values, index = _build(cls, raw)
        index.lookup_many(keys)  # compile, so the inserts must invalidate
        expected = dict(zip(keys.tolist(), values.tolist()))
        for i, key in enumerate(extra):
            index.insert(key, i)
            expected[key] = i
        q = np.concatenate([keys, np.asarray(extra, dtype=np.int64)])
        _assert_lookup_parity(index, q)
        stored = np.asarray(sorted(expected), dtype=np.int64)
        assert list(index.iter_keys()) == stored.tolist()
        assert index.n_keys == stored.size
        got = index.lookup_many(stored)
        assert bool(np.all(got.found))
        assert got.values.tolist() == [expected[k] for k in stored.tolist()]
        _assert_compile_parity(index)  # children dicts no longer in slot order


INT64 = np.iinfo(np.int64)
#: Query keys at both ends of the key space and around its middle.
EXTREME_PROBES = np.asarray(
    [INT64.min, INT64.min + 1, INT64.min + 5, -1, 0, 1, INT64.max - 5, INT64.max - 1, INT64.max],
    dtype=np.int64,
)
any_int64 = st.integers(min_value=int(INT64.min), max_value=int(INT64.max))


def _extreme_span_keys() -> np.ndarray:
    """2,002 keys from ``int64.min + 5`` to ``int64.max - 5``: ``key -
    pivot`` leaves int64 for most (key, pivot) pairs of the tree."""
    rng = np.random.default_rng(3)
    inner = rng.integers(INT64.min + 5, INT64.max - 5, 2000, dtype=np.int64)
    return np.unique(np.concatenate([inner, [INT64.min + 5, INT64.max - 5]]))


def _assert_both_walks_find(index, keys, values):
    """Every stored key is found by the batch sweep *and* by the scalar
    walk, at the same level, and ``key_level`` agrees."""
    batch = index.lookup_many(keys)
    assert bool(batch.found.all())
    assert np.array_equal(batch.values, values)
    for j, key in enumerate(keys.tolist()):
        scalar = index.lookup_stats(key)
        assert scalar.found and scalar.value == int(values[j])
        assert scalar.levels == int(batch.levels[j]) == index.key_level(key)


@pytest.mark.parametrize("cls", INDEX_CLASSES)
class TestExtremeSpanParity:
    """``key - pivot`` past int64: the batch sweep used to wrap where
    the scalar walk (Python ints) did not, so the two disagreed and a
    wide key set lost keys."""

    def test_extreme_span_build(self, cls, range_pairs):
        keys = _extreme_span_keys()
        values = keys // 4
        index = cls.build(keys, values)
        _assert_both_walks_find(index, keys, values)
        _assert_lookup_parity(index, np.concatenate([EXTREME_PROBES, keys + 1, keys - 1]))
        assert range_pairs(index.range_query(int(INT64.min), int(INT64.max))) == list(
            zip(keys.tolist(), values.tolist())
        )
        _assert_compile_parity(index)

    @pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "per_key"])
    def test_extreme_keys_into_an_ordinary_tree(self, cls, bulk, range_pairs):
        rng = np.random.default_rng(5)
        keys = np.unique(rng.integers(10**9, 10**12, 3000))
        index = cls.build(keys, keys * 3)
        index.lookup_many(keys)  # compile: the merge runs on the flat view
        offsets = rng.integers(0, 10**6, 41)
        extreme = np.unique(np.concatenate([INT64.min + offsets, INT64.max - offsets]))
        if bulk:
            index.bulk_insert_many(extreme, extreme // 7)
        else:
            for key in extreme.tolist():
                index.insert(key, key // 7)
        stored = np.concatenate([extreme[extreme < 0], keys, extreme[extreme > 0]])
        values = np.concatenate(
            [extreme[extreme < 0] // 7, keys * 3, extreme[extreme > 0] // 7]
        )
        _assert_both_walks_find(index, stored, values)
        _assert_lookup_parity(index, np.concatenate([EXTREME_PROBES, extreme + 1]))
        assert range_pairs(index.range_query(int(INT64.min), int(INT64.max))) == list(
            zip(stored.tolist(), values.tolist())
        )
        assert list(index.iter_keys()) == stored.tolist()

    @SETTINGS
    @given(
        raw=st.lists(any_int64, min_size=2, max_size=300),
        probes=st.lists(any_int64, max_size=100),
        batch=st.lists(any_int64, max_size=100),
    )
    def test_any_int64_keys(self, cls, insert_each, raw, probes, batch):
        keys, values, index = _build(cls, raw)
        _assert_both_walks_find(index, keys, values)
        q = np.concatenate([keys, EXTREME_PROBES, np.asarray(probes, dtype=np.int64)])
        _assert_lookup_parity(index, q)
        loop_index = cls.build(keys, values)
        bkeys = np.asarray(batch, dtype=np.int64)
        index.bulk_insert_many(bkeys, bkeys // 5)
        insert_each(loop_index, bkeys, bkeys // 5)
        _assert_content_parity(index, loop_index)
        _assert_lookup_parity(index, np.concatenate([q, bkeys]))


@pytest.mark.parametrize("cls", INDEX_CLASSES)
class TestBulkParity:
    @SETTINGS
    @given(raw=key_lists, batch=key_lists)
    def test_bulk_content_parity(self, cls, insert_each, raw, batch):
        keys, values, index = _build(cls, raw)
        loop_index = cls.build(keys, values)
        bkeys = np.asarray(batch, dtype=np.int64)
        bvals = np.arange(bkeys.size, dtype=np.int64) + 10_000
        index.bulk_insert_many(bkeys, bvals)
        insert_each(loop_index, bkeys, bvals)
        _assert_content_parity(index, loop_index)

    @SETTINGS
    @given(raw=key_lists, b1=key_lists, b2=key_lists)
    def test_repeated_bulk_content_parity(self, cls, insert_each, raw, b1, b2):
        keys, values, index = _build(cls, raw)
        loop_index = cls.build(keys, values)
        for i, batch in enumerate((b1, b2)):
            bkeys = np.asarray(batch, dtype=np.int64)
            bvals = np.full(bkeys.size, 77 + i, dtype=np.int64)
            index.bulk_insert_many(bkeys, bvals)
            insert_each(loop_index, bkeys, bvals)
        _assert_content_parity(index, loop_index)

    @SETTINGS
    @given(raw=key_lists)
    def test_bulk_duplicates_last_wins(self, cls, insert_each, raw):
        keys, values, index = _build(cls, raw)
        loop_index = cls.build(keys, values)
        # Re-insert every existing key (duplicate overwrite) plus its
        # successor (gap/conflict), duplicated within the batch.
        bkeys = np.concatenate([keys, keys, keys + 1])
        bvals = np.concatenate(
            [
                np.zeros(keys.size, dtype=np.int64),
                np.ones(keys.size, dtype=np.int64),
                np.full(keys.size, 2, dtype=np.int64),
            ]
        )
        index.bulk_insert_many(bkeys, bvals)
        insert_each(loop_index, bkeys, bvals)
        _assert_content_parity(index, loop_index)
        stats = index.lookup_many(keys)
        # Last wins: an existing key k ends at 1 (second keys section),
        # unless k-1 is also stored — then k == (k-1) + 1 reappears in
        # the successor section, which comes last, and ends at 2.
        expected = np.where(np.isin(keys - 1, keys), 2, 1)
        assert np.array_equal(stats.values, expected)


@pytest.mark.parametrize("cls", INDEX_CLASSES)
class TestRangeAndIntrospectionParity:
    @SETTINGS
    @given(raw=key_lists, bounds=st.tuples(st.integers(0, 1 << 44), st.integers(0, 1 << 44)))
    def test_range_query_parity(self, cls, raw, bounds, range_pairs):
        keys, values, index = _build(cls, raw)
        low, high = min(bounds), max(bounds)
        inside = (keys >= low) & (keys <= high)
        want = list(zip(keys[inside].tolist(), values[inside].tolist()))
        assert range_pairs(index.range_query(low, high)) == want

    @SETTINGS
    @given(raw=key_lists)
    def test_introspection_parity(self, cls, raw):
        keys, __, index = _build(cls, raw)
        _assert_introspection_parity(index)
        assert index.key_levels(keys).size == keys.size


@pytest.mark.parametrize("cls", INDEX_CLASSES)
class TestCsvSmoothedParity:
    @SETTINGS
    @given(raw=st.lists(st.integers(0, 1 << 38), min_size=64, max_size=300))
    def test_smoothed_lookup_parity(self, cls, raw):
        keys, __, index = _build(cls, raw)
        apply_csv(adapter_for(index), CsvConfig(alpha=0.2))
        _assert_lookup_parity(index, np.concatenate([keys, keys + 1]))
        _assert_introspection_parity(index)


class TestSaliFlattenedParity:
    def _hot_pair(self, rng):
        """A SALI index warmed by batches and a twin warmed per key."""
        keys = np.unique(rng.integers(0, 1 << 40, 3000))
        values = np.arange(keys.size, dtype=np.int64)
        index = SaliIndex.build(keys, values)
        twin = SaliIndex.build(keys, values)
        hot = rng.choice(keys[: keys.size // 4], 6000)
        index.lookup_many(hot)
        for key in hot.tolist():
            twin.lookup_stats(key)
        assert index.flatten_hot_subtrees(0.01) == twin.flatten_hot_subtrees(0.01)
        return keys, hot, index, twin

    def test_flattened_lookup_parity(self):
        rng = np.random.default_rng(2024)
        keys, hot, index, __ = self._hot_pair(rng)
        assert len(index.flattened_nodes()) > 0
        _assert_lookup_parity(index, np.concatenate([keys, rng.integers(0, 1 << 40, 500)]))
        _assert_introspection_parity(index)

    def test_flattened_bulk_content_parity(self, insert_each):
        rng = np.random.default_rng(2025)
        keys, __, index, twin = self._hot_pair(rng)
        bkeys = np.unique(rng.choice(keys[: keys.size // 4], 200) + 1)
        bvals = np.full(bkeys.size, 5, dtype=np.int64)
        index.bulk_insert_many(bkeys, bvals)
        insert_each(twin, bkeys, bvals)
        _assert_content_parity(index, twin)

    def test_access_tracking_parity(self):
        rng = np.random.default_rng(2026)
        keys, __, index, twin = self._hot_pair(rng)
        # Keep counting through the flattened leaves.
        again = rng.choice(keys, 2000)
        index.lookup_many(again)
        for key in again.tolist():
            twin.lookup_stats(key)
        assert index.tracker.total_queries == twin.tracker.total_queries
        counts = sorted(n.access_count for n in index.root.walk())
        twin_counts = sorted(n.access_count for n in twin.root.walk())
        assert counts == twin_counts


class TestFlatCacheLifecycle:
    def test_direct_surgery_requires_invalidate(self):
        rng = np.random.default_rng(7)
        keys = np.unique(rng.integers(0, 1 << 40, 2000))
        index = LippIndex.build(keys)
        index.lookup_many(keys[:10])  # compile the view
        # Structural surgery through the public API invalidates and
        # recompiles transparently.
        index.insert(int(keys[0]) + 1, 1)
        stats = index.lookup_many(np.asarray([int(keys[0]) + 1], dtype=np.int64))
        assert bool(stats.found[0])

    def test_prewarm_is_idempotent(self):
        keys = np.arange(0, 5000, 3, dtype=np.int64)
        index = LippIndex.build(keys)
        view = index._flat_view()
        index.lookup_many(keys[:10])
        assert index._flat_view() is view
        index.invalidate_flat()
        assert index._flat_view() is not view
