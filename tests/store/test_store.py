"""DurableStore lifecycle: initialize → flush → compact → rebuild.

The load-bearing invariant everywhere: ``load_shard_arrays`` (the
logical state) never changes across a compaction, and ``build_shard``
reconstructs an index whose answers match those arrays bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import IndexStateError
from repro.indexes import INDEX_FAMILIES
from repro.store import (
    DurableStore,
    StoreCorruptionError,
    make_strategy,
    sorted_unique_run,
)

from .conftest import FAMILY, base_arrays, flush_batch, logical_state


class TestInitialize:
    def test_commits_generation_one(self, store):
        assert store.is_initialized()
        assert store.generation == 1
        assert store.runs_outstanding() == 0
        manifest = store.manifest
        assert manifest.n_shards == 2
        assert all(m.kind == "base" for m in manifest.artefacts)
        assert store.verify() == 2

    def test_reinitialize_rejected(self, store, rng):
        with pytest.raises(IndexStateError, match="already initialized"):
            store.initialize(FAMILY, [0], [None, None], base_arrays(rng))

    def test_uninitialized_store_refuses_io(self, tmp_path):
        s = DurableStore(tmp_path / "empty")
        assert not s.is_initialized()
        with pytest.raises(IndexStateError, match="not initialized"):
            s.append_runs({0: (np.arange(3), np.arange(3))})
        with pytest.raises(IndexStateError, match="not initialized"):
            s.load_shard_arrays(0)


class TestFlush:
    def test_append_runs_is_one_generation(self, store, rng):
        batches = {0: flush_batch(rng, 0), 1: flush_batch(rng, 1)}
        gen = store.append_runs(batches)
        assert gen == store.generation == 2
        assert store.runs_outstanding() == 2  # one run per shard, same gen

    def test_flushed_keys_visible_last_write_wins(self, store, rng):
        keys, vals = flush_batch(rng, 0)
        store.append_runs({0: (keys, vals)})
        store.append_runs({0: (keys, vals + 1)})  # overwrite same keys
        got_k, got_v = store.load_shard_arrays(0)
        idx = np.searchsorted(got_k, keys)
        assert np.array_equal(got_k[idx], keys)
        assert np.array_equal(got_v[idx], vals + 1)

    def test_empty_batches_commit_nothing(self, store):
        gen = store.generation
        empty = np.empty(0, np.int64)
        assert store.append_runs({0: (empty, empty)}) == gen
        assert store.generation == gen

    def test_unknown_shard_rejected(self, store):
        with pytest.raises(IndexStateError, match="unknown shard"):
            store.append_runs({7: (np.arange(3), np.arange(3))})


class TestCompact:
    @pytest.mark.parametrize("spec", ["tiered:2", "sortmerge"])
    def test_preserves_logical_state(self, store, rng, spec):
        for _ in range(4):
            store.append_runs({0: flush_batch(rng, 0), 1: flush_batch(rng, 1)})
        before = logical_state(store)
        executed = store.compact(make_strategy(spec))
        assert executed > 0
        assert logical_state(store) == before
        assert store.verify() == len(store.manifest.artefacts)

    def test_sortmerge_leaves_zero_runs(self, store, rng):
        for _ in range(3):
            store.append_runs({0: flush_batch(rng, 0)})
        store.compact(make_strategy("sortmerge"))
        assert store.runs_outstanding() == 0
        assert store.manifest.base_for(0) is not None

    def test_stale_inputs_deleted_after_commit(self, store, rng, tmp_path):
        for _ in range(3):
            store.append_runs({0: flush_batch(rng, 0)})
        live_before = store.manifest.file_names()
        store.compact(make_strategy("sortmerge"))
        on_disk = {p.name for p in store.data_dir.glob("*.npz")}
        assert on_disk == store.manifest.file_names()
        assert not (live_before & on_disk & {  # superseded runs are gone
            n for n in live_before if n.startswith("run-")
        })

    def test_shard_filter(self, store, rng):
        for _ in range(3):
            store.append_runs({0: flush_batch(rng, 0), 1: flush_batch(rng, 1)})
        store.compact(make_strategy("sortmerge"), shard=0)
        assert len(store.manifest.runs_for(0)) == 0
        assert len(store.manifest.runs_for(1)) == 3


class TestRebuild:
    def test_build_shard_matches_arrays(self, store, rng, range_pairs):
        """``build_shard`` builds the base alone; the base with
        ``load_runs`` written over it, oldest first, is the shard."""
        for _ in range(3):
            store.append_runs({0: flush_batch(rng, 0)})
        index, replayed = store.build_shard(0, INDEX_FAMILIES[FAMILY])
        assert not replayed
        runs = store.load_runs(0)
        assert len(runs) == 3
        span = np.iinfo(np.int64)
        got_keys, got_vals = index.range_query(int(span.min), int(span.max))
        assert index.n_keys == got_keys.size
        for run_keys, run_vals in runs:
            got_keys, got_vals = sorted_unique_run(
                np.concatenate([got_keys, run_keys]), np.concatenate([got_vals, run_vals])
            )
        keys, vals = store.load_shard_arrays(0)
        assert range_pairs((got_keys, got_vals)) == list(zip(keys.tolist(), vals.tolist()))

    def test_reopen_same_directory(self, store, rng):
        store.append_runs({0: flush_batch(rng, 0), 1: flush_batch(rng, 1)})
        before = logical_state(store)
        reopened = DurableStore(store.data_dir)
        assert reopened.generation == store.generation
        assert logical_state(reopened) == before


class TestHygiene:
    def test_sweep_removes_orphans(self, store):
        (store.data_dir / "stray.npz").write_bytes(b"junk")
        (store.data_dir / "half.npz.tmp").write_bytes(b"junk")
        removed = store.sweep_orphans()
        assert sorted(removed) == ["half.npz.tmp", "stray.npz"]
        assert store.verify() == 2  # live artefacts untouched

    def test_open_sweeps_automatically(self, store):
        (store.data_dir / "stray.npz").write_bytes(b"junk")
        DurableStore(store.data_dir)
        assert not (store.data_dir / "stray.npz").exists()

    def test_verify_catches_bit_rot(self, store):
        victim = store.manifest.artefacts[0].name
        path = store.data_dir / victim
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(StoreCorruptionError):
            store.verify()
