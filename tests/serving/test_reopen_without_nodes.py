"""A reopened LIPP/SALI service holds its shards as flat views alone.

A LIPP build writes the flat view's arrays and makes no node object
(``repro.indexes.lipp.node.lay_out``), and a reopen is such a build from
CSV's record.  Everything a served shard does without walking nodes —
batch lookups, ranges, the health report, the size model, a snapshot —
must leave it that way; the first per-key walk (``lookup_stats``) makes
the shard's nodes, all of them, once.  ``LippNode.__init__`` is counted
to see it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import generate
from repro.indexes.lipp.node import LippNode
from repro.serving import IndexService
from repro.store import DurableStore

N_KEYS = 8_000
N_SHARDS = 4


@pytest.mark.parametrize("family", ["lipp", "sali"])
def test_a_reopened_shard_makes_its_nodes_on_the_first_walk(tmp_path, family, monkeypatch):
    keys = generate("osm", N_KEYS, 1)
    values = keys * 3
    with IndexService.build(
        keys, family=family, n_shards=N_SHARDS, values=values, alpha=0.1,
        store=DurableStore(tmp_path / "data"),
    ):
        pass
    made = [0]
    init = LippNode.__init__

    def counting(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(LippNode, "__init__", counting)
    with IndexService.open_snapshot(tmp_path / "data") as service:
        answers = service.lookup_many(keys[::3])
        assert bool(answers.found.all()) and np.array_equal(answers.values, values[::3])
        low, high = int(keys[500]), int(keys[6_500])
        got_keys, got_values = service.range_arrays(low, high)
        assert np.array_equal(got_keys, keys[500:6_501])
        assert np.array_equal(got_values, values[500:6_501])
        report = service.health_report()
        assert sum(row.n_keys for row in report.shards) == N_KEYS
        assert service.size_bytes() > 0
        service.snapshot()
        assert service.n_keys == N_KEYS
        assert made[0] == 0

        shard = service.router.shards[1]
        stored = keys[np.searchsorted(service.router.boundaries, keys, side="right") == 1]
        assert shard.lookup_stats(int(stored[0])).found
        assert made[0] == shard._flat_view().n_nodes  # the whole tree, once
        for key in stored[1::97].tolist():
            assert shard.lookup_stats(key).found
        assert shard.root is shard.root
        assert made[0] == shard._flat_view().n_nodes
        # The nodes write through the served view: the forest sees it.
        shard.insert(int(stored[0]), -1)
        assert service.lookup(int(stored[0])) == -1
