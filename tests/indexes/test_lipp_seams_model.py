"""LIPP and SALI against a plain-dict model, across every write seam.

One state machine interleaves the ways a LIPP/SALI tree changes — the
per-key ``insert`` (conflict children, LIPP's adjustment, a flattened
leaf taking the key), the bulk merge (sparse: in-place gapped merge;
dense: wholesale rebuild), a CSV pass, SALI's flattening — and after
every step holds the two traversals to each other and the tree to its
own bookkeeping: the scalar walk and the flat sweep agree on every
stored and absent key, subtree counts add up, every child hangs where
its ``parent`` / ``parent_slot`` say, and no sweep ever met a stale
flat view (every structural change invalidated it).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.csv_algorithm import CsvConfig, apply_csv
from repro.core.exceptions import IndexStateError
from repro.indexes import INDEX_FAMILIES, adapter_for
from repro.obs.metrics import MetricsRegistry, scoped_registry

# A key space the initial clusters fill unevenly: inserts land in EMPTY
# slots, on stored keys, on DATA slots (conflicts) and between clusters.
KEYS = st.integers(0, 40_000)
VALUES = st.integers(-(10**6), 10**6)
ENTRIES = st.tuples(KEYS, VALUES)


def _initial_keys() -> np.ndarray:
    rng = np.random.default_rng(5)
    clusters = [c + rng.lognormal(4.0, 1.2, 90).astype(np.int64) for c in (500, 9_000, 9_400, 30_000)]
    return np.unique(np.concatenate(clusters + [rng.integers(0, 40_000, 60)]))


class SeamsMachine(RuleBasedStateMachine):
    family = "lipp"

    def __init__(self) -> None:
        super().__init__()
        self.registry = MetricsRegistry(enabled=True)
        self._scope = scoped_registry(self.registry)
        self._scope.__enter__()
        keys = _initial_keys()
        self.index = INDEX_FAMILIES[self.family].build(keys, keys * 3)
        self.model: dict[int, int] = dict(zip(keys.tolist(), (keys * 3).tolist()))

    def teardown(self) -> None:
        self._scope.__exit__(None, None, None)

    # -- the seams ------------------------------------------------------
    @rule(entry=ENTRIES)
    def insert(self, entry):
        self.index.insert(*entry)
        self.model[entry[0]] = entry[1]

    @rule(neighbour=st.integers(0, 10**6), length=st.integers(1, 12), value=VALUES)
    def insert_run_beside_a_stored_key(self, neighbour, length, value):
        """Conflicts on demand: per-key inserts of the keys right after
        a stored one — enough of them on one node trip its adjustment."""
        stored = sorted(self.model)
        first = stored[neighbour % len(stored)] + 1
        for key in range(first, first + length):
            self.index.insert(key, value)
            self.model[key] = value

    def _bulk(self, batch):
        keys = np.asarray([k for k, __ in batch], dtype=np.int64)
        values = np.asarray([v for __, v in batch], dtype=np.int64)
        self.index.bulk_insert_many(keys, values)
        self.model.update(batch)  # last write wins, as in the batch

    @rule(batch=st.lists(ENTRIES, min_size=1, max_size=12))
    def bulk_insert_sparse(self, batch):
        self._bulk(batch)

    @rule(batch=st.lists(ENTRIES, min_size=150, max_size=260))
    def bulk_insert_dense(self, batch):
        self._bulk(batch)

    @rule()
    def smooth(self):
        apply_csv(adapter_for(self.index), CsvConfig(alpha=0.1))

    @precondition(lambda self: self.family == "sali")
    @rule(start=st.integers(0, 10**6))
    def flatten_what_is_hot(self, start):
        stored = np.asarray(sorted(self.model), dtype=np.int64)
        at = start % stored.size
        for __ in range(4):
            self.index.lookup_many(stored[at : at + 40])
        self.index.flatten_hot_subtrees(min_probability=0.05)

    # -- what must hold after each -------------------------------------
    @invariant()
    def walks_agree_and_tree_is_consistent(self):
        index, model = self.index, self.model
        stored = sorted(model)
        absent = sorted({k + 1 for k in stored} - model.keys() | {-7, 10**9})
        probes = stored + absent
        batch = index.lookup_many(np.asarray(probes, dtype=np.int64))
        for i, key in enumerate(probes):
            scalar = index.lookup_stats(key)
            assert scalar.found == bool(batch.found[i]) == (key in model)
            assert scalar.levels == batch.levels[i]
            assert scalar.search_steps == batch.search_steps[i]
            if scalar.found:
                assert scalar.value == batch.values[i] == model[key]
                assert index.key_level(key) == scalar.levels
            else:
                with pytest.raises(IndexStateError):
                    index.key_level(key)
        assert index.root.n_subtree_keys == index.n_keys == len(model)
        for node in index.root.walk():
            if node is not index.root:
                assert node.parent.children[node.parent_slot] is node
        assert self.registry.counter("flat_stale_retries_total", family=self.family).value == 0


class SaliSeamsMachine(SeamsMachine):
    family = "sali"


SEAM_SETTINGS = settings(max_examples=30, stateful_step_count=20, deadline=None)
TestLippSeams = SeamsMachine.TestCase
TestLippSeams.settings = SEAM_SETTINGS
TestSaliSeams = SaliSeamsMachine.TestCase
TestSaliSeams.settings = SEAM_SETTINGS
