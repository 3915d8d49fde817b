"""The LIPP/SALI batch sweep's outputs, pinned bit for bit.

``sweep_golden.json`` holds, for fixed query sets over fixed trees, the
sha256 of what the one flat sweep returns: ``found`` / ``values`` /
``levels`` / ``search_steps`` of a batch lookup (through a
``LippForest``, each key starting at its shard's root, and through a
bare index), the ``(node, gslot, kind, leaf)`` arrays of
``FlatLipp.locate``, and the ``access_count`` every node and flattened
leaf holds after a tracked SALI sweep.  The trees: osm and genome at
4,000 keys, cut into 4 shards with one left ``None`` and smoothed at
alpha 0.1, as LIPP and as SALI with hot subtrees flattened; and one
LIPP tree whose root holds a ``QuadraticModel``.  Each query set is
present keys, absent neighbours and keys outside the trees, once on the
int64-difference path and once with the int64 extremes added, which
puts the whole batch on the exact-delta path.

The file was recorded before the sweep checked staleness on the links
it follows and resolved its hits after the walk.  Re-record it only for
a change meant to alter the output::

    PYTHONPATH=src python tests/indexes/test_sweep_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.csv_algorithm import CsvConfig, apply_csv
from repro.core.linear_model import QuadraticModel, delta_may_wrap, fit_quadratic
from repro.datasets import generate
from repro.indexes import INDEX_FAMILIES
from repro.indexes.adapters import adapter_for
from repro.indexes.base import LearnedIndex
from repro.indexes.lipp import LippForest

GOLDEN = Path(__file__).with_name("sweep_golden.json")
DATASETS = ("osm", "genome")
FAMILIES = ("lipp", "sali")
N_KEYS = 4_000
N_SHARDS = 4
ALPHA = 0.1
_INT64 = np.iinfo(np.int64)


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _batch_digest(batch) -> dict:
    return {
        name: _digest(getattr(batch, name))
        for name in ("found", "values", "levels", "search_steps")
    }


def _queries(keys: np.ndarray, seed: int) -> dict[str, np.ndarray]:
    """``int``: present keys, absent neighbours and keys just outside
    the set; ``exact``: the same plus the int64 extremes."""
    rng = np.random.default_rng(seed)
    present = rng.choice(keys, 1_500)
    absent = rng.choice(keys, 500) + rng.integers(1, 4, 500)
    outside = np.asarray([keys[0] - 1, keys[0] - 1000, keys[-1] + 1, keys[-1] + 1000])
    q = np.concatenate([present, absent, outside]).astype(np.int64)
    rng.shuffle(q)
    extremes = np.asarray([_INT64.min, _INT64.min + 1, _INT64.max - 1, _INT64.max])
    exact = np.concatenate([q, extremes])
    rng.shuffle(exact)
    return {"int": q, "exact": exact}


def _shards(keys: np.ndarray, family: str):
    """Four shards over *keys*, each smoothed at :data:`ALPHA`; the
    first is empty (``None``: its boundary is the smallest key), so the
    keys below the set query a tree that is not there."""
    cls = INDEX_FAMILIES[family]
    cuts = np.linspace(0, keys.size, N_SHARDS).astype(int)[1:-1]
    cuts = np.concatenate([[0], cuts])
    shards = []
    for part in np.split(keys, cuts):
        if not part.size:
            shards.append(None)
            continue
        shard = cls.build(part, part * 3 + 1)
        apply_csv(adapter_for(shard), CsvConfig(alpha=ALPHA))
        shards.append(shard)
    assert len(shards) == N_SHARDS and shards[0] is None
    return shards, keys[cuts]


def _flatten_hot(shards, seed: int) -> None:
    """Warm each SALI shard on its first eighth, then flatten."""
    rng = np.random.default_rng(seed)
    for shard in shards:
        if shard is None:
            continue
        stored = np.fromiter(shard.iter_keys(), dtype=np.int64)
        hot = stored[: stored.size // 8]
        shard.lookup_many(np.concatenate([rng.choice(hot, 3000), rng.choice(stored, 300)]))
        assert shard.flatten_hot_subtrees(0.05) > 0


def _access_counts(shards) -> str:
    counts = [
        node.access_count for shard in shards if shard is not None for node in shard.root.walk()
    ]
    return _digest(np.asarray(counts, dtype=np.int64))


def _locate_digest(shards, q: np.ndarray) -> str:
    return _digest(*(
        arr for shard in shards if shard is not None for arr in shard._flat_view().locate(q)
    ))


def _forest_case(dataset: str, family: str) -> dict:
    keys = generate(dataset, N_KEYS, 1)
    shards, boundaries = _shards(keys, family)
    if family == "sali":
        _flatten_hot(shards, 2)
    forest = LippForest(shards, boundaries)
    out = {}
    for path, q in _queries(keys, 3).items():
        assert delta_may_wrap(q, forest._flat.pivot_min, forest._flat.pivot_max) == (path == "exact")
        out[f"forest/{path}"] = _batch_digest(forest.lookup_many(q))
        out[f"locate/{path}"] = _locate_digest(shards, q)
        # A bare shard's own sweep (tracked, for SALI) on its share.
        shard = shards[-1]
        mine = q[np.searchsorted(boundaries, q, side="right") == N_SHARDS - 1]
        out[f"shard/{path}"] = _batch_digest(shard.lookup_many(mine))
    out["access_counts"] = _access_counts(shards)
    return out


def _quadratic_case() -> dict:
    """A LIPP tree whose root model is a quadratic fitted to where the
    root's linear model sends the stored keys (``a != 0``)."""
    keys = generate("osm", N_KEYS, 1)
    index = INDEX_FAMILIES["lipp"].build(keys, keys * 3 + 1)
    root = index.root
    slots = [root.slot_of(int(key)) for key in keys]
    root.model = fit_quadratic(keys, slots)
    assert isinstance(root.model, QuadraticModel) and root.model.a != 0.0
    index.invalidate_flat()
    out = {}
    for path, q in _queries(keys, 4).items():
        batch = index.lookup_many(q)
        scalar = LearnedIndex.lookup_many(index, q)
        for name in ("found", "levels", "search_steps"):
            assert np.array_equal(getattr(batch, name), getattr(scalar, name))
        assert np.array_equal(batch.values[batch.found], scalar.values[scalar.found])
        out[f"index/{path}"] = _batch_digest(batch)
        out[f"locate/{path}"] = _digest(*index._flat_view().locate(q))
    assert 0 < int(batch.found.sum()) < q.size
    return out


def _run(case: str) -> dict:
    if case == "quadratic":
        return _quadratic_case()
    dataset, family = case.split("/")
    return _forest_case(dataset, family)


CASES = [f"{dataset}/{family}" for dataset in DATASETS for family in FAMILIES] + ["quadratic"]


@pytest.mark.parametrize("case", CASES)
def test_sweep_output_is_pinned(case):
    assert _run(case) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: _run(case) for case in CASES}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
