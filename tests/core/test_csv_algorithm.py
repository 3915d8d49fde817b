"""Tests for the Algorithm 2 engine, using an instrumented fake adapter."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.core.csv_algorithm import CsvConfig, apply_csv
from repro.core.exceptions import SmoothingBudgetError
from repro.core.smoothing import SmoothingResult


@dataclass
class FakeNode:
    name: str
    keys: np.ndarray
    delta: float
    children: list["FakeNode"] = field(default_factory=list)


class FakeAdapter:
    """Scripted adapter over a forest of :class:`FakeNode` (the root's
    children); a rebuilt node loses its children, as a merged node does."""

    def __init__(self, forest: list[FakeNode], rebuild_depends_on_keys_alone: bool = True):
        self.forest = forest
        self.rebuild_depends_on_keys_alone = rebuild_depends_on_keys_alone
        self.collected: list[str] = []
        self.rebuilt: list[str] = []

    def child_handles(self, handle: FakeNode | None) -> list[FakeNode]:
        return list(self.forest if handle is None else handle.children)

    def collect(self, handle: FakeNode):
        self.collected.append(handle.name)
        return handle.keys, handle.name

    def cost_delta(self, handle: FakeNode, smoothing: SmoothingResult) -> float:
        return handle.delta

    def rebuild(self, handle: FakeNode, smoothing: SmoothingResult, collected) -> tuple[int, int]:
        assert collected[0] is handle.keys and collected[1] == handle.name  # handed back
        self.rebuilt.append(handle.name)
        handle.children = []
        return int(handle.keys.size), 1


def _keys(rng, n=30):
    return np.unique(rng.integers(0, 10_000, n * 2))[:n]


def _chain(rng, deltas: dict[str, float]) -> FakeNode:
    """b (level 2) -> c (level 3) -> d (level 4), plus c's sibling c2."""
    d = FakeNode("d", _keys(rng), deltas["d"])
    c = FakeNode("c", _keys(rng), deltas["c"], [d])
    c2 = FakeNode("c2", _keys(rng), deltas["c2"])
    return FakeNode("b", _keys(rng), deltas["b"], [c, c2])


class TestCsvConfig:
    def test_defaults(self):
        cfg = CsvConfig()
        assert cfg.alpha == 0.1
        assert cfg.cost_threshold == 0.0
        assert cfg.min_subtree_keys == 3

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(SmoothingBudgetError):
            CsvConfig(alpha=alpha)


class TestApplyCsv:
    def test_bottom_up_level_order(self, rng):
        """Children-first: every handle is examined after all of its
        descendants, rebuilt or not — the paper's bottom-up pass."""
        deltas = {"b": -1.0, "c": -1.0, "c2": +1.0, "d": -1.0}
        adapter = FakeAdapter([_chain(rng, deltas)], rebuild_depends_on_keys_alone=False)
        report = apply_csv(adapter, CsvConfig(alpha=0.1))
        order = adapter.collected
        assert sorted(order) == ["b", "c", "c2", "d"]
        assert order.index("d") < order.index("c") < order.index("b")
        assert order.index("c2") < order.index("b")
        assert adapter.rebuilt == [n for n in order if n != "c2"]
        assert {r.level for r in report.records} == {2, 3, 4}

    def test_children_first_totals_skip_superseded_rebuilds(self, rng):
        """b's rebuild replaces c, c2 and d, each rebuilt before it:
        their records stay (marked ``superseded``), the totals count b."""
        deltas = {"b": -1.0, "c": -1.0, "c2": -1.0, "d": -1.0}
        tree = _chain(rng, deltas)
        adapter = FakeAdapter([tree], rebuild_depends_on_keys_alone=False)
        report = apply_csv(adapter, CsvConfig(alpha=0.1))
        assert sorted(adapter.rebuilt) == ["b", "c", "c2", "d"]
        assert report.nodes_examined == 4
        survivors = [r for r in report.records if not r.superseded]
        assert sorted(r.level for r in survivors) == [2]
        assert report.nodes_rebuilt == 1
        assert report.keys_promoted == tree.keys.size
        assert report.keys_demoted == 1
        assert report.virtual_points_inserted == survivors[0].n_virtual

    def test_parent_first_skips_below_a_rebuild(self, rng):
        deltas = {"b": -1.0, "c": -1.0, "c2": -1.0, "d": -1.0}
        adapter = FakeAdapter([_chain(rng, deltas)])
        report = apply_csv(adapter, CsvConfig(alpha=0.1))
        assert adapter.collected == ["b"]
        assert adapter.rebuilt == ["b"]
        assert [r.level for r in report.records] == [2]

    def test_parent_first_descends_below_a_decline(self, rng):
        deltas = {"b": +1.0, "c": +1.0, "c2": -1.0, "d": -1.0}
        adapter = FakeAdapter([_chain(rng, deltas)])
        report = apply_csv(adapter, CsvConfig(alpha=0.1))
        order = adapter.collected
        assert sorted(order) == ["b", "c", "c2", "d"]
        assert order.index("b") < order.index("c") < order.index("d")
        assert sorted(adapter.rebuilt) == ["c2", "d"]
        assert sorted((r.level, r.rebuilt) for r in report.records) == [
            (2, False), (3, False), (3, True), (4, True),
        ]

    def test_cost_threshold_gates_rebuild(self, rng):
        adapter = FakeAdapter(
            [
                FakeNode("good", _keys(rng), -5.0),
                FakeNode("bad", _keys(rng), +5.0),
                FakeNode("zero", _keys(rng), 0.0),
            ]
        )
        report = apply_csv(adapter, CsvConfig(alpha=0.2, cost_threshold=0.0))
        assert adapter.rebuilt == ["good"]
        assert report.nodes_rebuilt == 1
        assert report.nodes_examined == 3

    def test_negative_threshold_is_stricter(self, rng):
        adapter = FakeAdapter([FakeNode("mild", _keys(rng), -1.0)])
        report = apply_csv(adapter, CsvConfig(alpha=0.2, cost_threshold=-10.0))
        assert report.nodes_rebuilt == 0

    def test_min_subtree_keys_skips_tiny(self):
        adapter = FakeAdapter([FakeNode("tiny", np.array([1, 2]), -1.0)])
        report = apply_csv(adapter, CsvConfig(alpha=0.5, min_subtree_keys=3))
        assert report.nodes_examined == 0
        assert adapter.collected == ["tiny"]  # collected, then skipped

    def test_report_aggregates(self, rng):
        keys_a = _keys(rng)
        keys_b = _keys(rng)
        adapter = FakeAdapter(
            [FakeNode("a", keys_a, -1.0), FakeNode("b", keys_b, -2.0)]
        )
        report = apply_csv(adapter, CsvConfig(alpha=0.2))
        # The fake adapter's rebuild() reports every key as promoted
        # and one key per rebuild as demoted.
        assert report.keys_promoted == keys_a.size + keys_b.size
        assert report.keys_demoted == 2
        assert report.nodes_rebuilt == report.nodes_examined == 2
        assert report.preprocessing_seconds > 0.0

    def test_records_capture_losses(self, rng):
        keys = _keys(rng)
        adapter = FakeAdapter([FakeNode("a", keys, -1.0)])
        report = apply_csv(adapter, CsvConfig(alpha=0.2))
        (record,) = report.records
        assert record.level == 2
        assert record.n_keys == keys.size
        assert record.loss_after <= record.loss_before
        assert record.rebuilt

    def test_empty_adapter_no_records(self):
        report = apply_csv(FakeAdapter([]), CsvConfig(alpha=0.1))
        assert report.nodes_examined == 0
        assert report.keys_promoted == 0
