"""Tests for the CSV↔index adapters and full Algorithm 2 integration."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.csv_algorithm import CsvConfig, apply_csv
from repro.core.exceptions import IndexStateError
from repro.core.smoothing import smooth_keys
from repro.indexes import (
    AlexCsvAdapter,
    AlexIndex,
    BPlusTree,
    LippCsvAdapter,
    LippIndex,
    SaliIndex,
    adapter_for,
)
from repro.indexes.alex.data_node import AlexDataNode
from repro.indexes.alex.inner_node import AlexInnerNode
from repro.indexes.lipp.node import LippNode


def _all_handles(adapter) -> list:
    """Every handle reachable from the root, parents before children."""
    out = list(adapter.child_handles(None))
    for handle in out:  # grows while iterating: a breadth-first walk
        out.extend(adapter.child_handles(handle))
    return out


class TestAdapterFor:
    def test_dispatch(self, small_keys):
        assert isinstance(adapter_for(LippIndex.build(small_keys)), LippCsvAdapter)
        assert isinstance(adapter_for(SaliIndex.build(small_keys)), LippCsvAdapter)
        assert isinstance(adapter_for(AlexIndex.build(small_keys)), AlexCsvAdapter)

    def test_sali_shares_lipps_adapter(self, small_keys):
        """SALI subclasses LIPP and smooths through LIPP's adapter."""
        adapter = adapter_for(SaliIndex.build(small_keys))
        assert type(adapter) is LippCsvAdapter

    def test_unknown_raises(self, small_keys):
        with pytest.raises(IndexStateError):
            adapter_for(BPlusTree.build(small_keys))


class TestLippAdapter:
    def test_handles_exclude_root(self, clustered_keys):
        index = LippIndex.build(clustered_keys)
        adapter = LippCsvAdapter(index)
        handles = _all_handles(adapter)
        assert handles
        for handle in handles:
            assert handle is not index.root
            assert handle.parent is not None
            assert handle.level == handle.parent.level + 1
            assert handle.has_subtree
        # child_handles misses no subtree-rooting node of the tree.
        rooted = [n for n in index.root.walk() if n.has_subtree and n.parent is not None]
        assert {id(h) for h in handles} == {id(n) for n in rooted}

    def test_keys_decide_the_rebuild(self):
        assert LippCsvAdapter.rebuild_depends_on_keys_alone

    def test_collect_keys_sorted(self, clustered_keys):
        index = LippIndex.build(clustered_keys)
        adapter = LippCsvAdapter(index)
        handle = adapter.child_handles(None)[0]
        keys, values, levels = adapter.collect(handle)
        assert np.all(np.diff(keys) > 0)
        expected_keys, expected_values = handle.collect_arrays()
        assert np.array_equal(keys, expected_keys)
        assert np.array_equal(values, expected_values)
        assert np.array_equal(levels, index.lookup_many(keys).levels)

    def test_cost_delta_is_loss_change(self, clustered_keys):
        adapter = LippCsvAdapter(LippIndex.build(clustered_keys))
        handle = adapter.child_handles(None)[0]
        keys = adapter.collect(handle)[0]
        smoothing = smooth_keys(keys, alpha=0.2)
        delta = adapter.cost_delta(handle, smoothing)
        assert delta == pytest.approx(smoothing.final_loss - smoothing.original_loss)

    def test_rebuild_preserves_lookups(self, clustered_keys):
        index = LippIndex.build(clustered_keys)
        adapter = LippCsvAdapter(index)
        handle = adapter.child_handles(None)[0]
        collected = adapter.collect(handle)
        keys, __, levels_before = collected
        smoothing = smooth_keys(keys, alpha=0.3)
        promoted, demoted = adapter.rebuild(handle, smoothing, collected)
        levels_after = index.lookup_many(keys).levels
        assert promoted == np.count_nonzero(levels_after < levels_before)
        assert demoted == np.count_nonzero(levels_after > levels_before)
        for key in keys.tolist():
            assert index.lookup(key) == key

    def test_replaced_subtrees_are_freed_without_the_cycle_collector(self, clustered_keys):
        """A rebuilt handle's old subtree holds no reference cycle
        (``child.parent`` is weak), so a smoothed index leaves nothing
        for ``gc`` to find."""
        index = LippIndex.build(clustered_keys)
        gc.collect()
        gc.disable()
        try:
            report = apply_csv(adapter_for(index), CsvConfig(alpha=0.2))
            alive = sum(isinstance(obj, LippNode) for obj in gc.get_objects())
        finally:
            gc.enable()
        assert report.nodes_rebuilt > 0
        assert alive == index.node_count()

    @pytest.mark.parametrize("cls", [LippIndex, SaliIndex])
    def test_a_dropped_index_is_freed_without_the_cycle_collector(self, cls, clustered_keys):
        """Parent links are weak, so dropping the last reference to a
        smoothed index frees every node at once — SALI's flattened
        leaves too (one holding its parent strongly would keep it)."""
        index = cls.build(clustered_keys)
        apply_csv(adapter_for(index), CsvConfig(alpha=0.2))
        if cls is SaliIndex:
            index.lookup_many(np.repeat(clustered_keys[: clustered_keys.size // 8], 20))
            assert index.flatten_hot_subtrees(0.05) > 0
        nodes = [weakref.ref(node) for node in index.root.walk() if isinstance(node, LippNode)]
        gc.collect()
        gc.disable()
        try:
            del index
            alive = sum(ref() is not None for ref in nodes)
        finally:
            gc.enable()
        assert nodes and alive == 0

    def test_rebuild_marks_virtual_slots(self, clustered_keys):
        index = LippIndex.build(clustered_keys)
        adapter = LippCsvAdapter(index)
        handle = max(adapter.child_handles(None), key=lambda h: h.n_subtree_keys)
        collected = adapter.collect(handle)
        keys = collected[0]
        assert keys.size >= 10
        smoothing = smooth_keys(keys, alpha=0.3)
        adapter.rebuild(handle, smoothing, collected)
        parent = handle.parent
        new_child = parent.children[handle.parent_slot]
        assert new_child.virtual_slots == smoothing.n_virtual
        assert new_child.m == smoothing.points.size


class TestAlexAdapter:
    def test_handles_are_inner_non_root(self, clustered_keys):
        index = AlexIndex.build(clustered_keys)
        adapter = AlexCsvAdapter(index)
        handles = _all_handles(adapter)
        assert handles
        for handle in handles:
            assert isinstance(handle, AlexInnerNode)
            assert handle is not index.root
            assert handle.parent is not None
        inner = [
            n for n in index.root.walk()
            if isinstance(n, AlexInnerNode) and n.parent is not None
        ]
        assert {id(h) for h in handles} == {id(n) for n in inner}

    def test_structure_decides_the_rebuild(self):
        assert not AlexCsvAdapter.rebuild_depends_on_keys_alone

    def test_cost_delta_negative_for_good_merge(self, clustered_keys):
        """Deep, well-smoothable subtrees should price below zero."""
        adapter = AlexCsvAdapter(AlexIndex.build(clustered_keys))
        found_negative = False
        for handle in reversed(_all_handles(adapter)):  # deepest first
            keys = adapter.collect(handle)[0]
            if keys.size < 10:
                continue
            smoothing = smooth_keys(keys, alpha=0.2)
            if adapter.cost_delta(handle, smoothing) < 0:
                found_negative = True
                break
        assert found_negative

    def test_rebuild_preserves_lookups(self, clustered_keys):
        index = AlexIndex.build(clustered_keys)
        adapter = AlexCsvAdapter(index)
        handle = next(
            h for h in reversed(_all_handles(adapter)) if adapter.collect(h)[0].size >= 5
        )
        collected = adapter.collect(handle)
        keys = collected[0]
        smoothing = smooth_keys(keys, alpha=0.2)
        promoted, demoted = adapter.rebuild(handle, smoothing, collected)
        assert promoted >= 0
        assert demoted == 0  # the merge only lifts
        for key in keys.tolist():
            assert index.lookup(key) == key

    def test_replaced_subtrees_are_freed_without_the_cycle_collector(self, clustered_keys):
        """``child.parent`` is weak in ALEX too, so the inner nodes a
        merge replaces leave nothing for ``gc`` to find."""
        index = AlexIndex.build(clustered_keys)
        gc.collect()
        gc.disable()
        try:
            report = apply_csv(adapter_for(index), CsvConfig(alpha=0.2))
            alive = sum(isinstance(obj, (AlexInnerNode, AlexDataNode)) for obj in gc.get_objects())
        finally:
            gc.enable()
        assert report.nodes_rebuilt > 0
        assert alive == index.node_count()

    def test_a_dropped_index_is_freed_without_the_cycle_collector(self, clustered_keys):
        """Dropping the last reference to an ALEX index (a closed
        service, a shard a merge replaced) frees every node at once."""
        index = AlexIndex.build(clustered_keys)
        assert index.node_count() > 1
        gc.collect()
        gc.disable()
        try:
            del index
            alive = sum(isinstance(obj, (AlexInnerNode, AlexDataNode)) for obj in gc.get_objects())
        finally:
            gc.enable()
        assert alive == 0


@pytest.mark.parametrize("cls", [LippIndex, SaliIndex, AlexIndex])
class TestFullCsvIntegration:
    def test_apply_csv_preserves_all_lookups(self, cls, clustered_keys):
        index = cls.build(clustered_keys)
        apply_csv(adapter_for(index), CsvConfig(alpha=0.1))
        for key in clustered_keys.tolist():
            assert index.lookup(int(key)) == int(key), key

    def test_apply_csv_never_raises_on_easy_data(self, cls, rng):
        keys = np.unique(rng.integers(0, 10**6, 3000))
        index = cls.build(keys)
        report = apply_csv(adapter_for(index), CsvConfig(alpha=0.2))
        assert report.preprocessing_seconds >= 0.0
        for key in keys[::11].tolist():
            assert index.lookup(key) == key

    def test_inserts_after_csv(self, cls, clustered_keys, rng):
        index = cls.build(clustered_keys)
        apply_csv(adapter_for(index), CsvConfig(alpha=0.1))
        new = np.setdiff1d(np.unique(rng.integers(0, 2**40, 500)), clustered_keys)
        for key in new.tolist():
            index.insert(int(key), int(key))
        for key in new[::7].tolist():
            assert index.lookup(int(key)) == int(key)
