"""The memtable against a plain-dict model, under every interleaving.

One state machine drives :class:`~repro.serving.service._Memtable`
the way the service's write path does — write batches, flush
snapshots, merge snapshots — but completes the snapshots in any order
and lands writes *between* a snapshot and its completion, which the
single-driver service never does today.  The model is a ``dict`` of
the buffered entries plus the set of keys not yet flushed; a pending
snapshot remembers which keys were written after it was taken.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.serving.service import _Memtable

# A small key space, so batches repeat keys and overlap the buffer.
BATCHES = st.lists(
    st.tuples(st.integers(0, 11), st.integers(-50, 50)), min_size=1, max_size=8
)


class MemtableMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.memtable = _Memtable()
        self.model: dict[int, int] = {}
        self.unflushed: set[int] = set()
        #: mark of the snapshot in flight, and the keys written since.
        self.flush_mark: int | None = None
        self.since_flush: set[int] = set()
        self.merge_mark: int | None = None
        self.since_merge: set[int] = set()

    @rule(batch=BATCHES)
    def put_run(self, batch):
        keys = np.asarray([k for k, __ in batch], dtype=np.int64)
        values = np.asarray([v for __, v in batch], dtype=np.int64)
        self.memtable.put_run(keys, values)
        self.model.update(batch)
        written = {k for k, __ in batch}
        self.unflushed |= written
        self.since_flush |= written
        self.since_merge |= written

    @precondition(lambda self: self.flush_mark is None)
    @rule()
    def take_flush_snapshot(self):
        keys, values, self.flush_mark = self.memtable.unflushed()
        assert dict(zip(keys.tolist(), values.tolist())) == {
            k: self.model[k] for k in self.unflushed
        }
        self.since_flush = set()

    @precondition(lambda self: self.flush_mark is not None)
    @rule()
    def complete_flush(self):
        self.memtable.mark_flushed(self.flush_mark)
        self.flush_mark = None
        # Flushed: everything unflushed at the snapshot, minus what was
        # written (or rewritten) after it.
        self.unflushed &= self.since_flush

    @precondition(lambda self: self.merge_mark is None)
    @rule()
    def take_merge_snapshot(self):
        keys, values, self.merge_mark = self.memtable.snapshot()
        assert dict(zip(keys.tolist(), values.tolist())) == self.model
        self.since_merge = set()

    @precondition(lambda self: self.merge_mark is not None)
    @rule()
    def complete_merge(self):
        self.memtable.drop_through(self.merge_mark)
        self.merge_mark = None
        # Merged away: exactly what the snapshot covered, and nothing
        # written after it.
        self.model = {k: v for k, v in self.model.items() if k in self.since_merge}
        self.unflushed &= self.since_merge

    @invariant()
    def buffered_view_equals_model(self):
        keys, values = self.memtable.arrays()
        assert keys.dtype == values.dtype == np.int64
        assert keys.tolist() == sorted(self.model)  # sorted, unique, complete
        assert values.tolist() == [self.model[k] for k in sorted(self.model)]
        assert len(self.memtable) == len(self.model)

    @invariant()
    def unflushed_view_equals_writes_since_last_flush(self):
        keys, values, __ = self.memtable.unflushed()
        assert keys.tolist() == sorted(self.unflushed)
        assert values.tolist() == [self.model[k] for k in sorted(self.unflushed)]
        assert self.memtable.n_unflushed() == len(self.unflushed)


TestMemtableModel = MemtableMachine.TestCase
TestMemtableModel.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
