"""The depth-first CSV engine against the level-by-level engine it replaced.

``_reference_apply_csv`` is the old ``apply_csv`` loop, kept here as the
oracle: find the deepest level that holds a handle, then sweep every
level up to 2, enumerating each level's handles with a whole-tree walk
and examining all of them (the per-handle step is the engine's own) —
descendants always before ancestors, whatever the adapter declares.
``apply_csv`` must leave the same tree.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.csv_algorithm import CsvConfig, CsvReport, _examine, apply_csv
from repro.datasets import generate
from repro.indexes import INDEX_FAMILIES, LippCsvAdapter, adapter_for
from repro.indexes.alex.inner_node import AlexInnerNode
from repro.indexes.lipp.node import LippNode

FAMILIES = ["lipp", "sali", "alex"]
DATASETS = ["osm", "genome", "facebook", "uniform"]


def _keys(dataset: str, n: int) -> np.ndarray:
    if dataset == "uniform":
        return np.unique(np.random.default_rng(7).integers(0, 2**40, n))
    return generate(dataset, n, 3)


def _build(family: str, keys: np.ndarray):
    return INDEX_FAMILIES[family].build(keys, keys * 3 + 1)


# -- the oracle ----------------------------------------------------------
def _handles_by_level(index) -> dict[int, list]:
    """Every non-root node that roots a subtree, grouped by its level."""
    root = index.root
    if isinstance(root, AlexInnerNode):
        nodes = [n for n in root.walk() if isinstance(n, AlexInnerNode)]
    elif isinstance(root, LippNode):
        nodes = [n for n in root.walk() if isinstance(n, LippNode) and n.has_subtree]
    else:
        nodes = []
    out: dict[int, list] = {}
    for node in nodes:
        if node.parent is not None:
            out.setdefault(node.level, []).append(node)
    return out


def _reference_apply_csv(adapter, cfg: CsvConfig) -> CsvReport:
    report = CsvReport(config=cfg)
    level = max(_handles_by_level(adapter.index), default=0)
    while level >= 2:
        # Re-enumerated per level: rebuilds at the level below may have
        # created or removed nodes.
        for handle in _handles_by_level(adapter.index).get(level, []):
            _examine(adapter, cfg, handle, level, report)
        level -= 1
    return report


# -- what "the same tree" means -------------------------------------------
def _state(index, keys: np.ndarray) -> dict[str, np.ndarray]:
    out = index.lookup_many(keys)
    assert np.all(out.found)
    state = {
        "values": out.values,
        "levels": out.levels,
        "search_steps": out.search_steps,
        "size_bytes": np.asarray(index.size_bytes()),
        "node_count": np.asarray(index.node_count()),
    }
    if isinstance(index.root, LippNode):
        flat = index._flat_view()
        state |= {
            "slot_keys": flat.slot_keys.copy(),
            "slot_type": flat.slot_type.copy(),
            "slot_values": flat.slot_values.copy(),
        }
    return state


def _assert_same(got: dict[str, np.ndarray], want: dict[str, np.ndarray]) -> None:
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def _assert_engines_agree(family: str, keys: np.ndarray, cfg: CsvConfig, adapter_cls=None):
    """Smooth twin indexes with both engines; return the new engine's
    report and the oracle's."""
    make = adapter_cls or adapter_for
    new, old = _build(family, keys), _build(family, keys)
    report = apply_csv(make(new), cfg)
    reference = _reference_apply_csv(make(old), cfg)
    _assert_same(_state(new, keys), _state(old, keys))
    return report, reference


# -- the matrix ------------------------------------------------------------
@pytest.mark.parametrize("cost_threshold", [0.0, -5.0, -200.0])
@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.4])
@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("family", FAMILIES)
def test_same_tree_as_level_order_engine(family, dataset, alpha, cost_threshold):
    keys = _keys(dataset, 1_000)
    cfg = CsvConfig(alpha=alpha, cost_threshold=cost_threshold)
    report, reference = _assert_engines_agree(family, keys, cfg)
    if family == "alex":
        # Children-first examines exactly what bottom-up did.
        def as_multiset(r):
            return sorted((x.level, x.n_keys, x.rebuilt, x.promoted_keys) for x in r.records)

        assert as_multiset(report) == as_multiset(reference)
    else:
        assert report.nodes_examined <= reference.nodes_examined


@pytest.mark.parametrize("family", ["lipp", "sali"])
@pytest.mark.parametrize(
    "dataset, alpha, cost_threshold",
    [("facebook", 0.05, -5.0), ("facebook", 0.05, -200.0), ("genome", 0.05, -200.0)],
)
def test_recursion_below_declining_level2_handles(family, dataset, alpha, cost_threshold):
    """10k keys: most (facebook) or a third (genome) of the level-2
    handles decline, and the walk goes on beneath them."""
    keys = _keys(dataset, 10_000)
    report, __ = _assert_engines_agree(
        family, keys, CsvConfig(alpha=alpha, cost_threshold=cost_threshold)
    )
    declined = sum(1 for r in report.records if r.level == 2 and not r.rebuilt)
    assert declined >= 20
    if cost_threshold == -200.0:
        assert any(r.level > 2 for r in report.records)


class _DeclineDownTo:
    """Mixin: refuse every rebuild at level <= ``floor``, whatever the
    loss says — still a rule the old and the new order must agree on,
    and one that sends the walk under every big handle."""

    floor = 2

    def cost_delta(self, handle, smoothing):
        if handle.level <= self.floor:
            return 1.0
        return super().cost_delta(handle, smoothing)


@pytest.mark.parametrize("floor", [2, 3])
@pytest.mark.parametrize("family, base", [("lipp", LippCsvAdapter), ("sali", LippCsvAdapter)])
def test_scripted_declines_send_the_walk_deep(family, base, floor):
    adapter_cls = type("Declining", (_DeclineDownTo, base), {"floor": floor})
    keys = _keys("osm", 4_000)
    report, reference = _assert_engines_agree(
        family, keys, CsvConfig(alpha=0.1), adapter_cls=adapter_cls
    )
    rebuilt_levels = {r.level for r in report.records if r.rebuilt}
    assert rebuilt_levels and min(rebuilt_levels) == floor + 1
    # Nothing beneath a rebuilt handle was examined; the oracle did
    # (at floor 3 these trees have nothing beneath one).
    assert report.nodes_examined <= reference.nodes_examined
    if floor == 2:
        assert report.nodes_examined < reference.nodes_examined


# -- fixed point, merges, work done ------------------------------------------
@pytest.mark.parametrize("dataset", ["osm", "genome"])
@pytest.mark.parametrize("family", FAMILIES)
def test_second_pass_is_a_fixed_point(family, dataset):
    keys = _keys(dataset, 3_000)
    index = _build(family, keys)
    apply_csv(adapter_for(index), CsvConfig(alpha=0.1))
    once = _state(index, keys)
    apply_csv(adapter_for(index), CsvConfig(alpha=0.1))
    _assert_same(_state(index, keys), once)


@pytest.mark.parametrize("family", FAMILIES)
def test_merge_then_resmooth_three_deep(family):
    """An in-place merge (``bulk_insert_many``) and CSV again, three times."""
    rng = np.random.default_rng(11)
    pool = rng.permutation(_keys("osm", 3_900))
    keys = np.sort(pool[:3_000])
    new, old = _build(family, keys), _build(family, keys)
    cfg = CsvConfig(alpha=0.1)
    apply_csv(adapter_for(new), cfg)
    _reference_apply_csv(adapter_for(old), cfg)
    for batch in np.split(pool[3_000:], 3):
        batch = np.sort(batch)
        keys = np.union1d(keys, batch)
        for index in (new, old):
            index.bulk_insert_many(batch, batch * 3 + 1)
        apply_csv(adapter_for(new), cfg)
        _reference_apply_csv(adapter_for(old), cfg)
        _assert_same(_state(new, keys), _state(old, keys))


def test_osm_shard_examines_no_more_than_its_level2_handles():
    keys = _keys("osm", 10_000)
    index = _build("lipp", keys)
    adapter = adapter_for(index)
    level2 = len(adapter.child_handles(None))
    report = apply_csv(adapter, CsvConfig(alpha=0.1))
    assert 0 < report.nodes_examined <= level2


# -- the report describes the tree -------------------------------------------
@pytest.mark.parametrize("dataset", ["osm", "genome"])
@pytest.mark.parametrize("family", ["lipp", "sali"])
def test_report_equals_tree(family, dataset):
    """No LIPP/SALI rebuild is superseded by a later one, so the report
    counts what the tree holds (the level-order engine also counted the
    rebuilds a level-2 rebuild then replaced: 1,907 virtual points
    reported on osm 10k at alpha = 0.1, 997 in the tree)."""
    keys = _keys(dataset, 10_000)
    index = _build(family, keys)
    levels_before = index.lookup_many(keys).levels
    report = apply_csv(adapter_for(index), CsvConfig(alpha=0.1))
    smoothed = [n for n in index.root.walk() if n.virtual_slots > 0]
    assert report.virtual_points_inserted == sum(n.virtual_slots for n in smoothed) > 0
    assert report.virtual_points_inserted <= 0.1 * keys.size
    assert report.nodes_rebuilt == len(smoothed)
    # ... and the keys it says moved are the keys that moved, both ways
    # (the merged node's own conflicts push keys down a level).
    levels_after = index.lookup_many(keys).levels
    assert report.keys_promoted == np.count_nonzero(levels_after < levels_before) > 0
    assert report.keys_demoted == np.count_nonzero(levels_after > levels_before) > 0


@pytest.mark.parametrize("dataset", ["covid", "facebook", "genome", "osm"])
@pytest.mark.parametrize("family", FAMILIES)
def test_report_counts_only_the_rebuilds_that_survive(family, dataset):
    """Children-first (ALEX), a rebuilt handle replaces the nodes rebuilt
    beneath it, and their records leave the totals: the report counts
    the final tree (ALEX osm 3k at alpha = 0.1 reported 19 rebuilds and
    883 virtual points against 4 and 298 in the tree)."""
    keys = _keys(dataset, 3_000)
    index = _build(family, keys)
    levels_before = index.lookup_many(keys).levels
    report = apply_csv(adapter_for(index), CsvConfig(alpha=0.1))
    smoothed = [n for n in index.root.walk() if getattr(n, "virtual_slots", 0) > 0]
    assert report.virtual_points_inserted == sum(n.virtual_slots for n in smoothed)
    assert report.nodes_rebuilt == len(smoothed)
    levels_after = index.lookup_many(keys).levels
    assert report.keys_promoted == np.count_nonzero(levels_after < levels_before)
    assert report.keys_demoted == np.count_nonzero(levels_after > levels_before)


def test_alex_demotes_nothing():
    keys = _keys("osm", 3_000)
    index = _build("alex", keys)
    levels_before = index.lookup_many(keys).levels
    report = apply_csv(adapter_for(index), CsvConfig(alpha=0.1))
    assert report.nodes_rebuilt > 0 and report.keys_demoted == 0
    assert not np.any(index.lookup_many(keys).levels > levels_before)
