"""IndexService ↔ DurableStore: snapshot, reopen, flush, rebase.

The serving-layer half of the durability contract: ``snapshot()``
commits exactly what the service would answer, ``open_snapshot()``
rebuilds a service that answers identically without the dataset, the
flush threshold and the staleness merge both move writes to disk
without being asked, and ``close()`` leaves nothing volatile behind.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.csv_algorithm import CsvConfig, apply_csv
from repro.core.exceptions import IndexStateError
from repro.indexes import CSV_FAMILIES, INDEX_FAMILIES, LippIndex
from repro.indexes.adapters import adapter_for
from repro.serving import IndexService
from repro.store import MANIFEST_NAME, DurableStore
from repro.store.runs import read_base_file, read_run_file, write_run_file

FAMILY = "lipp"
N_SHARDS = 3


@pytest.fixture()
def keyset(rng) -> np.ndarray:
    return np.unique(rng.integers(0, 10**8, 2_000))


def fresh_batches(rng, keyset, n_batches=6, size=300):
    hi = int(keyset.max())
    fresh = hi + 1 + rng.choice(10**7, size=n_batches * size, replace=False)
    return [fresh[i * size : (i + 1) * size] for i in range(n_batches)]


def full_pairs(service: IndexService) -> np.ndarray:
    bounds = np.iinfo(np.int64)
    keys, values = service.range_arrays(int(bounds.min), int(bounds.max))
    assert keys.dtype == values.dtype == np.int64
    return np.column_stack((keys, values))


def _scan_shard(shard) -> tuple[np.ndarray, np.ndarray]:
    """Every stored (key, value) of one shard, as two sorted int64
    arrays, by one ordered ``range_query`` — the oracle of what a
    reopened shard holds."""
    if shard is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    bounds = np.iinfo(np.int64)
    keys, values = shard.range_query(int(bounds.min), int(bounds.max))
    return keys.copy(), values.copy()


def _answers(service: IndexService, queries: np.ndarray) -> tuple[bytes, ...]:
    batch = service.lookup_many(queries)
    return tuple(
        getattr(batch, field).tobytes()
        for field in ("found", "values", "levels", "search_steps")
    )


class TestSnapshotRoundtrip:
    def test_reopen_is_bit_identical(self, tmp_path, rng, keyset):
        store = DurableStore(tmp_path / "data")
        with IndexService.build(
            keyset, family=FAMILY, n_shards=N_SHARDS, store=store
        ) as service:
            for batch in fresh_batches(rng, keyset):
                service.insert_many(batch, batch * 2)
            service.snapshot()
            want = full_pairs(service)
            queries = np.concatenate(
                [rng.choice(keyset, 400), rng.integers(0, 10**8, 100)]
            )
            want_lookups = service.lookup_many(queries)

        with IndexService.open_snapshot(tmp_path / "data") as reopened:
            assert reopened.family == FAMILY
            assert reopened.n_shards == N_SHARDS
            got = full_pairs(reopened)
            assert np.array_equal(got, want)
            got_lookups = reopened.lookup_many(queries)
            assert np.array_equal(got_lookups.found, want_lookups.found)
            assert np.array_equal(got_lookups.values, want_lookups.values)

    def test_build_with_store_snapshots_immediately(self, tmp_path, keyset):
        with IndexService.build(
            keyset, family=FAMILY, n_shards=N_SHARDS,
            store=DurableStore(tmp_path / "data"),
        ) as service:
            assert service.durable_generation() == 1
        with IndexService.open_snapshot(tmp_path / "data") as reopened:
            assert reopened.n_keys == keyset.size

    def test_snapshot_fully_compacts(self, tmp_path, rng, keyset):
        """``snapshot()`` merges every buffer: each shard's runs fold
        into its base, and nothing is left buffered."""
        store = DurableStore(tmp_path / "data")
        with IndexService.build(
            keyset, family=FAMILY, n_shards=N_SHARDS, store=store,
            staleness_threshold=10.0,
        ) as service:
            for batch in fresh_batches(rng, keyset, n_batches=3):
                service.insert_many(batch)
                service.flush_durable()
            assert store.runs_outstanding() > 0
            service.snapshot()
            assert store.runs_outstanding() == 0
            assert service.buffered_counts() == (0,) * N_SHARDS

    def test_open_snapshot_requires_manifest(self, tmp_path):
        with pytest.raises(IndexStateError, match="no snapshot to open"):
            IndexService.open_snapshot(tmp_path / "nothing-here")

    def test_build_refuses_a_used_directory(self, tmp_path, rng, keyset):
        """``build(store=)`` never adopts a used directory: it raises,
        naming it, and leaves every byte in it as it was."""
        data_dir = tmp_path / "data"
        with IndexService.build(
            keyset, family=FAMILY, n_shards=N_SHARDS, store=DurableStore(data_dir),
            staleness_threshold=10.0,
        ) as service:
            batch = fresh_batches(rng, keyset, n_batches=1)[0]
            service.insert_many(batch, batch * 2)
        generation = DurableStore(data_dir).generation
        before = {path.name: path.read_bytes() for path in data_dir.iterdir()}
        other = np.setdiff1d(rng.integers(0, 10**8, 2_000), keyset)
        for n_shards in (N_SHARDS, N_SHARDS + 1):
            with pytest.raises(IndexStateError, match=re.escape(str(data_dir))):
                IndexService.build(
                    other, family=FAMILY, n_shards=n_shards, store=DurableStore(data_dir)
                )
            assert {path.name: path.read_bytes() for path in data_dir.iterdir()} == before
        with IndexService.open_snapshot(data_dir, staleness_threshold=10.0) as reopened:
            assert reopened.durable_generation() == generation > 1
            assert bool(reopened.lookup_many(np.concatenate([keyset, batch])).found.all())
            assert not reopened.lookup_many(other).found.any()

    def test_constructor_refuses_a_store_it_does_not_match(self, tmp_path, keyset):
        IndexService.build(
            keyset, family=FAMILY, n_shards=N_SHARDS, store=DurableStore(tmp_path / "data")
        ).close()
        for family, n_shards in (("sali", N_SHARDS), (FAMILY, N_SHARDS + 1)):
            other = IndexService.build(keyset, family=family, n_shards=n_shards)
            with pytest.raises(IndexStateError, match="shards; this service is"):
                IndexService(
                    other.router, other.family, other.alphas,
                    store=DurableStore(tmp_path / "data"),
                )
        with pytest.raises(IndexStateError, match="not initialized"):
            IndexService(
                other.router, other.family, other.alphas,
                store=DurableStore(tmp_path / "empty"),
            )

    def test_reopen_reads_no_shard_back(self, tmp_path, rng, keyset, monkeypatch):
        """The router is built from the manifest and the rebuilt shards;
        nothing dumps a shard's contents (a LIPP range's key order) on
        the way."""
        with IndexService.build(
            keyset, family="lipp", n_shards=N_SHARDS, values=keyset * 3, alpha=0.1,
            store=DurableStore(tmp_path / "data"),
        ):
            pass

        def refuse(*args, **kwargs):
            raise AssertionError("open_snapshot read a shard's contents")

        monkeypatch.setattr(LippIndex, "_key_order", refuse)
        with IndexService.open_snapshot(tmp_path / "data") as reopened:
            queries = rng.choice(keyset, 500)
            answers = reopened.lookup_many(queries)
            assert bool(answers.found.all())
            assert np.array_equal(answers.values, queries * 3)
            assert reopened.alphas == (0.1,) * N_SHARDS
            assert not hasattr(reopened, "plan")


def _parent_manifest(data_dir, shard_arrays, boundaries) -> dict:
    """MANIFEST.json as releases up to the drift baseline's removal
    wrote it: ``service.mode`` included."""
    artefacts = []
    for shard, (keys, values) in enumerate(shard_arrays):
        name = f"base-s{shard:04d}-g00000001.npz"
        checksum, size = write_run_file(data_dir, name, keys, values)
        artefacts.append({
            "name": name, "kind": "base", "shard": shard, "generation": 1,
            "n_keys": int(keys.size), "min_key": int(keys[0]), "max_key": int(keys[-1]),
            "checksum": checksum, "size_bytes": size,
        })
    return {
        "format_version": 1,
        "generation": 1,
        "updated_ts": 1720000000.0,
        "service": {
            "family": "lipp",
            "n_shards": len(shard_arrays),
            "boundaries": [int(b) for b in boundaries],
            "alphas": [0.1] * len(shard_arrays),
            "mode": "equi_depth",
        },
        "artefacts": artefacts,
    }


class TestDataDirCompatibility:
    """Data directories cross the ``mode`` removal in both directions."""

    def test_parent_shaped_manifest_reopens_bit_identically(self, tmp_path, rng, keyset):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        values = keyset * 3
        cut = keyset.size // 2  # plan_shards' equi-depth cut at K = 2
        manifest = _parent_manifest(
            data_dir, [(keyset[:cut], values[:cut]), (keyset[cut:], values[cut:])], [keyset[cut]]
        )
        (data_dir / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True))
        queries = np.concatenate([rng.choice(keyset, 600), rng.integers(0, 10**8, 200)])
        with IndexService.build(
            keyset, family="lipp", n_shards=2, values=values, alpha=0.1
        ) as live, IndexService.open_snapshot(data_dir) as reopened:
            assert np.array_equal(reopened.router.boundaries, live.router.boundaries)
            want, got = live.lookup_many(queries), reopened.lookup_many(queries)
            for field in ("found", "values", "levels", "search_steps"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
            assert np.array_equal(full_pairs(reopened), full_pairs(live))

    def test_new_manifest_carries_what_older_readers_require(self, tmp_path, keyset):
        """Every key an older ``Manifest.from_json`` reads without a
        default is still written; only the defaulted ``mode`` is gone."""
        with IndexService.build(
            keyset, family=FAMILY, n_shards=N_SHARDS, store=DurableStore(tmp_path / "data")
        ):
            pass
        written = json.loads((tmp_path / "data" / MANIFEST_NAME).read_text())
        assert {"format_version", "generation", "service", "artefacts"} <= set(written)
        assert set(written["service"]) == {"family", "n_shards", "boundaries", "alphas"}
        for artefact in written["artefacts"]:
            assert set(artefact) >= {
                "name", "kind", "shard", "generation", "n_keys",
                "min_key", "max_key", "checksum", "size_bytes",
            }


class TestFlushPaths:
    def test_threshold_flushes_without_being_asked(self, tmp_path, rng, keyset):
        with IndexService.build(
            keyset, family=FAMILY, n_shards=N_SHARDS,
            store=DurableStore(tmp_path / "data"),
            flush_threshold=200,
            staleness_threshold=10.0,  # keep merges out of the picture
        ) as service:
            for batch in fresh_batches(rng, keyset, n_batches=4, size=250):
                service.insert_many(batch, batch * 2)
            assert service.stats.flushes > 0
            assert service.durable_generation() > 1

    def test_unflushed_writes_survive_close(self, tmp_path, rng, keyset):
        batch = fresh_batches(rng, keyset, n_batches=1)[0]
        with IndexService.build(
            keyset, family=FAMILY, n_shards=N_SHARDS,
            store=DurableStore(tmp_path / "data"),
            staleness_threshold=10.0,
        ) as service:
            service.insert_many(batch, batch * 5)
            # No threshold, no snapshot: only close() stands between
            # these writes and the floor.
        with IndexService.open_snapshot(tmp_path / "data") as reopened:
            probe = batch[:50]
            got = reopened.lookup_many(probe)
            assert bool(got.found.all())
            assert np.array_equal(got.values, probe * 5)

    def test_staleness_merge_flushes_and_rebases(self, tmp_path, rng, keyset):
        """A merge flushes its buffer, then writes the fold as the
        shard's base with CSV's record: no run is left, and nothing is
        compacted."""
        store = DurableStore(tmp_path / "data")
        with IndexService.build(
            keyset, family=FAMILY, n_shards=1, alpha=0.1, store=store,
            staleness_threshold=0.01,
        ) as service:
            for batch in fresh_batches(rng, keyset, n_batches=4, size=200):
                service.insert_many(batch, batch * 2)
            assert service.stats.merges == service.stats.flushes == 4
            assert service.stats.compactions == 0
            assert store.runs_outstanding() == 0
            base = store.manifest.base_for(0)
            keys, values, csv = read_base_file(store.data_dir, base.name, base.checksum)
            assert keys.size == keyset.size + 800 and csv is not None and csv.size

    def test_flush_durable_is_idempotent(self, tmp_path, rng, keyset):
        batch = fresh_batches(rng, keyset, n_batches=1)[0]
        with IndexService.build(
            keyset, family=FAMILY, n_shards=N_SHARDS,
            store=DurableStore(tmp_path / "data"),
            staleness_threshold=10.0,
        ) as service:
            service.insert_many(batch)
            g1 = service.flush_durable()
            g2 = service.flush_durable()  # nothing new: same generation
            assert g2 == g1
            assert service.stats.flushes == 1


    def test_writes_landing_mid_flush_stay_unflushed(self, tmp_path, rng, keyset):
        """A write that lands after the run is committed but before the
        flush is acknowledged — a new key, and a rewrite of a key the
        run holds — is not covered by that flush: it is in the next run."""
        store = DurableStore(tmp_path / "data")
        a, b, c = (int(keyset.max()) + i for i in (1, 2, 3))
        with IndexService.build(
            keyset, family="alex", n_shards=1, store=store,
            staleness_threshold=10.0,
        ) as service:
            service.insert_many([a, b], [10, 20])
            commit = store.append_runs

            def commit_then_write(batches):
                generation = commit(batches)
                store.append_runs = commit
                service.insert_many([c, b], [30, 22])
                return generation

            store.append_runs = commit_then_write
            service.flush_durable()
            assert service.stats.flushed_keys == 2
            first, = store.manifest.runs_for(0)
            service.flush_durable()
            assert service.stats.flushes == 2
            assert service.stats.flushed_keys == 4
            __, second = store.manifest.runs_for(0)
            keys, values = read_run_file(store.data_dir, second.name, second.checksum)
            assert keys.tolist() == [b, c] and values.tolist() == [22, 30]
            keys, values = read_run_file(store.data_dir, first.name, first.checksum)
            assert keys.tolist() == [a, b] and values.tolist() == [10, 20]
        with IndexService.open_snapshot(tmp_path / "data") as reopened:
            got = reopened.lookup_many([a, b, c])
            assert got.found.all() and got.values.tolist() == [10, 22, 30]


class TestReopenThenWrite:
    def test_reopened_service_keeps_absorbing(self, tmp_path, rng, keyset):
        with IndexService.build(
            keyset, family=FAMILY, n_shards=N_SHARDS,
            store=DurableStore(tmp_path / "data"),
            staleness_threshold=10.0,
        ) as service:
            first = fresh_batches(rng, keyset, n_batches=1)[0]
            service.insert_many(first, first * 2)

        with IndexService.open_snapshot(
            tmp_path / "data", staleness_threshold=10.0, flush_threshold=100
        ) as reopened:
            second = np.asarray(first) + 1  # interleaves with first batch
            reopened.insert_many(second, second * 3)
            assert reopened.durable_generation() > 1

        with IndexService.open_snapshot(tmp_path / "data") as final:
            got = final.lookup_many(np.concatenate([first[:50], second[:50]]))
            assert bool(got.found.all())


class TestEveryFamilyReopensItsRuns:
    @pytest.mark.parametrize("family", sorted(CSV_FAMILIES))
    def test_reopen_answers_as_the_live_service(self, tmp_path, rng, keyset, family):
        """Writes below the staleness threshold, ``flush_durable()``,
        ``close()``: the directory holds runs, and every served family
        puts them back into its write buffers.  The reopened service
        answers as the live one did before close, levels and search
        steps included, and again once both have merged the writes."""
        batch = np.concatenate([fresh_batches(rng, keyset, n_batches=1, size=120)[0], keyset[::40]])
        queries = np.concatenate([rng.choice(keyset, 300), batch, batch + 1])
        live = IndexService.build(
            keyset, family=family, n_shards=N_SHARDS,
            store=DurableStore(tmp_path / "data"), staleness_threshold=10.0,
        )
        live.insert_many(batch, -batch)
        assert live.stats.merges == 0
        live.flush_durable()
        before_close = _answers(live, queries)
        live.close()
        assert live.store.runs_outstanding() > 0
        shutil.copytree(tmp_path / "data", tmp_path / "copy")  # both merge below
        with IndexService.open_snapshot(
            tmp_path / "copy", staleness_threshold=10.0
        ) as reopened:
            assert reopened.buffered_counts() == live.buffered_counts()
            assert _answers(reopened, queries) == before_close
            reopened.flush()
            live.flush()
            assert _answers(reopened, queries) == _answers(live, queries)


class TestColdConcurrentReads:
    def test_racing_first_reads_lose_no_merged_write(self, tmp_path, rng):
        """A service is warm before anyone can read it.

        The LIPP flat view compiles lazily and unlocked, re-pointing
        the tree's slot arrays at its own buffers.  Two first reads
        compiling one cold shard together used to leave the tree on
        one compile's buffers and lookups on the other's; the next
        merge wrote slots into one and rebuilt from the other, and
        acknowledged keys vanished.
        """
        keys = np.unique(rng.integers(0, 10**9, 8_000))
        IndexService.build(
            keys, family=FAMILY, n_shards=2, store=DurableStore(tmp_path / "snap")
        ).close()
        barrier = threading.Barrier(2)

        def first_read(service):
            barrier.wait()
            service.lookup_many(keys[:256])

        for trial in range(12):  # the race needs both timing windows to line up
            data_dir = tmp_path / f"trial{trial}"
            shutil.copytree(tmp_path / "snap", data_dir)
            with IndexService.open_snapshot(data_dir) as service:
                # A tiny switch interval interleaves the two readers
                # the way a loaded two-worker server does by chance.
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-5)
                try:
                    with ThreadPoolExecutor(2) as pool:
                        reads = [pool.submit(first_read, service) for _ in range(2)]
                        for read in reads:
                            read.result()
                finally:
                    sys.setswitchinterval(interval)
                acked = []
                for _ in range(30):  # 64-key writes until shards merge
                    fresh = np.setdiff1d(
                        rng.integers(int(keys[0]), int(keys[-1]), 64), keys
                    )
                    service.insert_many(fresh, fresh + 1)
                    acked.append(fresh)
                assert service.stats.merges > 0
                acked = np.unique(np.concatenate(acked))
                got = service.lookup_many(acked)
                assert got.found.all(), f"trial {trial}: lost {(~got.found).sum()}"
                assert np.array_equal(got.values, acked + 1)
                assert service.lookup_many(keys).found.all()


class TestShardScan:
    """What a snapshot writes is what a reopened shard holds: every
    stored pair, sorted, int64 (``_scan_shard``, one ordered
    ``range_query`` per shard)."""

    @pytest.mark.parametrize("buffered", [False, True], ids=["empty-memtable", "memtable"])
    @pytest.mark.parametrize("family", sorted(CSV_FAMILIES))
    def test_snapshot_reopen_roundtrips_byte_equal(self, tmp_path, rng, keyset, family, buffered):
        expected = dict(zip(keyset.tolist(), (keyset * 3 + 1).tolist()))
        with IndexService.build(
            keyset, family=family, n_shards=N_SHARDS, values=keyset * 3 + 1,
            alpha=0.1,
            store=DurableStore(tmp_path / "data"),
            staleness_threshold=10.0,  # writes stay in the memtable
        ) as service:
            if buffered:
                fresh = fresh_batches(rng, keyset, n_batches=1)[0]
                batch = np.concatenate([fresh, keyset[::9], keyset[::5] + 1])
                service.insert_many(batch, -batch)
                expected.update(zip(batch.tolist(), (-batch).tolist()))
                assert service.stats.merges == 0
            service.snapshot()
        want_keys = np.asarray(sorted(expected), dtype=np.int64)
        want_values = np.asarray([expected[k] for k in want_keys.tolist()], dtype=np.int64)
        with IndexService.open_snapshot(tmp_path / "data") as reopened:
            dumps = [_scan_shard(shard) for shard in reopened.router.shards]
            got_keys = np.concatenate([keys for keys, __ in dumps])
            got_values = np.concatenate([values for __, values in dumps])
            assert got_keys.dtype == got_values.dtype == np.int64
            assert got_keys.tobytes() == want_keys.tobytes()
            assert got_values.tobytes() == want_values.tobytes()
            answers = reopened.lookup_many(want_keys)
            assert bool(answers.found.all())
            assert np.array_equal(answers.values, want_values)

    @pytest.mark.parametrize("family", ["lipp", "sali"])
    def test_tree_dump_equals_the_ordered_walk(self, rng, family):
        def assert_dump(index):
            entries = sorted(index.root.iter_entries())
            keys, values = _scan_shard(index)
            assert keys.dtype == values.dtype == np.int64
            assert list(zip(keys.tolist(), values.tolist())) == entries
            assert len(entries) == index.n_keys

        keys = np.unique(rng.integers(0, 1 << 40, 4_000))
        index = INDEX_FAMILIES[family].build(keys, keys * 3 + 1)
        assert_dump(index)
        apply_csv(adapter_for(index), CsvConfig(alpha=0.1))
        assert_dump(index)
        # A sparse batch: the in-place gapped merge (overwrites, gap
        # fills and fresh conflict children), not a rebuild.
        batch = np.unique(np.concatenate([keys[::40], keys[::55] + 1]))
        index.bulk_insert_many(batch, -batch)
        assert_dump(index)
        if family == "sali":
            index.lookup_many(rng.choice(keys[: keys.size // 4], 6_000))
            assert index.flatten_hot_subtrees(0.01) > 0
            assert_dump(index)
            index.bulk_insert_many(batch + 2, batch)  # through flattened leaves
            assert_dump(index)
