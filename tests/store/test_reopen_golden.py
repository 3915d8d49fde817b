"""The structure a smoothed reopen builds, pinned bit for bit.

``reopen_golden.json`` holds, for every served family (``lipp``,
``sali``, ``alex``) on the four dataset analogues at alpha 0.05 and
0.1, the sha256 of each shard :meth:`DurableStore.build_shard` makes
from a base file that records CSV's rebuilds:

* LIPP/SALI: the flat view's node levels, model coefficient bits and
  pivots, slot offsets, slot arrays and ``slot_child``, and each
  node's virtual slots and subtree key count;
* ALEX: ``node_levels()``, each data node's capacity and
  ``virtual_slots``, and ``lookup_many``'s four arrays on the stored
  keys and on ``keys + 1``.

The file was recorded while a reopen still built the plain tree and
then redid the recorded rebuilds on it.  Re-record it only for a
change meant to alter the reopened tree::

    PYTHONPATH=src python tests/store/test_reopen_golden.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import generate
from repro.indexes import INDEX_FAMILIES
from repro.indexes.alex.data_node import AlexDataNode
from repro.serving import IndexService
from repro.store import DurableStore

GOLDEN = Path(__file__).with_name("reopen_golden.json")
DATASETS = ("covid", "facebook", "genome", "osm")
ALPHAS = (0.05, 0.1)
N_KEYS = 8_000
N_SHARDS = 4


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _lipp_digest(index) -> str:
    flat = index._flat_view()
    # The build's own view: its counts, since it made no node objects.
    per_node = np.column_stack([flat.node_virtual_slots, flat.node_subtree_keys])
    return _digest(
        flat.node_level, flat.node_a, flat.node_b, flat.node_c, flat.node_pivot,
        flat.slot_start, flat.slot_type, flat.slot_keys, flat.slot_values,
        flat.slot_child, per_node,
    )


def _alex_digest(index, keys: np.ndarray) -> str:
    data = np.asarray(
        [(node.capacity, node.virtual_slots) for node in index._walk()
         if isinstance(node, AlexDataNode)],
        dtype=np.int64,
    )
    arrays = [np.asarray(index.node_levels(), dtype=np.int64), data]
    for probe in (keys, keys + 1):
        batch = index.lookup_many(probe)
        arrays += [batch.found, batch.values, batch.levels, batch.search_steps]
    return _digest(*arrays)


def _run(case: str) -> list[str]:
    family, dataset, alpha = case.split("/")
    keys = generate(dataset, N_KEYS, 1)
    digests = []
    with tempfile.TemporaryDirectory() as data_dir:
        store = DurableStore(data_dir)
        IndexService.build(keys, family=family, n_shards=N_SHARDS, values=keys * 3 + 1,
                           alpha=float(alpha), store=store)
        reopened = DurableStore(data_dir)
        for shard in range(N_SHARDS):
            index, replayed = reopened.build_shard(shard, INDEX_FAMILIES[family])
            assert replayed
            shard_keys, __ = reopened.load_shard_arrays(shard)
            digests.append(
                _alex_digest(index, shard_keys) if family == "alex" else _lipp_digest(index)
            )
    return digests


CASES = [
    f"{family}/{dataset}/{alpha}"
    for family in ("lipp", "sali", "alex")
    for dataset in DATASETS
    for alpha in ALPHAS
]


@pytest.mark.parametrize("case", CASES)
def test_reopened_shards_are_pinned(case):
    assert _run(case) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: _run(case) for case in CASES}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
