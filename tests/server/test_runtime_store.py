"""Runtime store: WAL persistence, op-log replay, restart recovery.

The store's contract is crash-shaped: ``record_op`` logs *before* the
batch is applied, counters upsert atomically, and :meth:`replay` on a
reopened file reconstructs every accepted write and counter — which
the end-to-end test exercises through a full HTTP restart cycle.
"""

from __future__ import annotations

import shutil
import sqlite3

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, scoped_registry
from repro.server import HttpIndexClient, RuntimeStore, ServerThread
from repro.serving import IndexService

from .conftest import FAMILY, N_SHARDS


@pytest.fixture()
def store(tmp_path):
    with RuntimeStore(tmp_path / "runtime.db") as s:
        yield s


class TestStoreUnit:
    def test_wal_mode_and_version(self, store):
        assert store.journal_mode() == "wal"
        assert store.meta_get("version") == "1"

    def test_meta_upsert(self, store):
        store.meta_set("k", "a")
        store.meta_set("k", "b")
        assert store.meta_get("k") == "b"
        assert store.meta_get("absent") is None

    def test_op_log_roundtrip_preserves_order_and_bits(self, store, rng):
        batches = [rng.integers(-(2**62), 2**62, n) for n in (1, 17, 300)]
        for i, keys in enumerate(batches):
            vals = None if i == 0 else keys * 2
            store.record_op("insert", keys, vals)
        ops = store.iter_ops()
        assert [op.seq for op in ops] == sorted(op.seq for op in ops)
        assert len(ops) == store.op_count() == 3
        for i, (op, keys) in enumerate(zip(ops, batches)):
            assert op.op == "insert"
            assert np.array_equal(op.keys, keys)
            if i == 0:
                assert op.values is None
            else:
                assert np.array_equal(op.values, keys * 2)

    def test_prune_keeps_newest(self, store, rng):
        for _ in range(5):
            store.record_op("insert", rng.integers(0, 100, 4))
        seqs = [op.seq for op in store.iter_ops()]
        assert store.prune_op_log_upto(seqs[2]) == 3
        assert [op.seq for op in store.iter_ops()] == seqs[-2:]

    def test_counters_upsert_roundtrip(self, store):
        store.save_counters({"a": 1, "b": 2})
        store.save_counters({"b": 20, "c": 3})
        assert store.load_counters() == {"a": 1, "b": 20, "c": 3}

    def test_replay_bundles_everything(self, store, rng):
        keys = rng.integers(0, 1000, 10)
        store.record_op("insert", keys)
        store.save_counters({"x": 5})
        state = store.replay()
        assert state.counters == {"x": 5}
        assert len(state.ops) == 1 and np.array_equal(state.ops[0].keys, keys)

    def test_survives_reopen(self, tmp_path, rng):
        path = tmp_path / "r.db"
        keys = rng.integers(0, 1000, 6)
        with RuntimeStore(path) as first:
            first.record_op("insert", keys)
            first.save_counters({"n": 42})
        with RuntimeStore(path) as second:
            assert second.journal_mode() == "wal"
            state = second.replay()
            assert state.counters == {"n": 42}
            assert np.array_equal(state.ops[0].keys, keys)


class TestRestartRecovery:
    def test_http_inserts_survive_a_restart(self, tmp_path, rng):
        """Accepted writes and counters come back after the process dies."""
        base = np.unique(rng.integers(0, 10**8, 1_500))
        fresh = np.unique(int(base[-1]) + 1 + rng.integers(0, 2**30, 100))
        store_path = tmp_path / "runtime.db"

        registry = MetricsRegistry(enabled=True)
        with scoped_registry(registry):
            service = IndexService.build(base, family=FAMILY, n_shards=N_SHARDS)
            with RuntimeStore(store_path) as store:
                with ServerThread(service, registry=registry, store=store) as srv:
                    with HttpIndexClient(srv.host, srv.port) as client:
                        client.insert(fresh.tolist())
                        client.lookup(fresh[:10].tolist())
                        first_stats = client.stats()
            service.close()
        assert first_stats["store"]["journal_mode"] == "wal"
        assert first_stats["store"]["op_log_entries"] == 1

        # "Restart": a brand-new process state — fresh registry, fresh
        # service built from only the BASE keys — pointed at the store.
        registry2 = MetricsRegistry(enabled=True)
        with scoped_registry(registry2):
            service2 = IndexService.build(base, family=FAMILY, n_shards=N_SHARDS)
            with RuntimeStore(store_path) as store:
                with ServerThread(service2, registry=registry2, store=store) as srv:
                    with HttpIndexClient(srv.host, srv.port) as client:
                        resp = client.lookup(fresh.tolist())
                        stats = client.stats()
            service2.close()
        assert all(resp["found"])  # replay restored every accepted write
        assert resp["values"] == [int(v) for v in fresh]  # default value = key
        http = stats["http"]
        assert http["http_requests_total.insert"] == 1
        assert http["http_keys_inserted_total"] == fresh.size
        assert registry2.counter("http_replayed_ops_total").value == 1

    def test_crash_restart_then_clean_restart_keeps_every_write(self, tmp_path, rng):
        """Crash image -> restart -> clean stop -> restart.

        The clean stop's ``durable_sync`` prunes every op-log row up to
        ``last_seq()``, so each of those rows must have been applied
        first: the removed ``--no-replay`` restart pruned rows it had
        skipped, and the acknowledged writes were gone for good.
        """
        from repro.store import DurableStore

        base = np.unique(rng.integers(0, 10**8, 1_200))
        fresh = int(base[-1]) + np.arange(1, 51)
        live, crash = tmp_path / "live", tmp_path / "crash"
        registry = MetricsRegistry(enabled=True)
        with scoped_registry(registry):
            service = IndexService.build(
                base, family=FAMILY, n_shards=N_SHARDS,
                store=DurableStore(live / "data"), staleness_threshold=10.0,
            )
            with RuntimeStore(live / "runtime.db") as store:
                with ServerThread(service, registry=registry, store=store) as srv:
                    with HttpIndexClient(srv.host, srv.port) as client:
                        client.insert(fresh.tolist())  # acknowledged
                        # Power cut: the disk as it is now, nothing synced.
                        shutil.copytree(live, crash)
            service.close()

        replayed = []
        for _ in range(2):
            registry = MetricsRegistry(enabled=True)
            with scoped_registry(registry):
                service = IndexService.open_snapshot(crash / "data", staleness_threshold=10.0)
                with RuntimeStore(crash / "runtime.db") as store:
                    with ServerThread(service, registry=registry, store=store) as srv:
                        with HttpIndexClient(srv.host, srv.port) as client:
                            resp = client.lookup(fresh.tolist())
                service.close()
            assert all(resp["found"])
            replayed.append(registry.counter("http_replayed_ops_total").value)
        assert replayed == [1, 0]  # the clean stop left nothing to replay


#: The runtime.db layout of the release that still had the block
#: cache (store version 1), written out so the fixture does not
#: depend on code that no longer exists.
LEGACY_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE counters (name TEXT PRIMARY KEY, value INTEGER NOT NULL);
CREATE TABLE op_log (
    seq INTEGER PRIMARY KEY AUTOINCREMENT, ts REAL NOT NULL, op TEXT NOT NULL,
    n_keys INTEGER NOT NULL, keys BLOB NOT NULL, vals BLOB
);
CREATE TABLE query_cache (
    shard INTEGER NOT NULL, block INTEGER NOT NULL, keys BLOB NOT NULL,
    vals BLOB NOT NULL, saved_ts REAL NOT NULL, PRIMARY KEY (shard, block)
);
"""


class TestLegacyDataDir:
    def test_runtime_db_with_query_cache_table_still_opens(self, tmp_path, rng):
        base = np.unique(rng.integers(0, 10**8, 1_000))
        batches = [int(base[-1]) + 1 + np.arange(i * 50, (i + 1) * 50) for i in range(3)]
        path = tmp_path / "runtime.db"
        conn = sqlite3.connect(path)
        conn.executescript(LEGACY_SCHEMA)
        conn.execute("INSERT INTO meta VALUES ('version', '1')")
        conn.executemany(
            "INSERT INTO counters VALUES (?, ?)",
            [
                ("service.n_lookups", 700),
                ("service.merges", 4),
                ("service.cache_hits", 11),
                ("service.cache_misses", 22),
                ("service.cache_fills", 3),
                ("http_keys_inserted_total", 150),
            ],
        )
        for keys in batches:  # un-pruned rows: nothing was durably synced
            blob = keys.astype("<i8").tobytes()
            conn.execute(
                "INSERT INTO op_log (ts, op, n_keys, keys, vals) VALUES (0, 'insert', ?, ?, ?)",
                (keys.size, blob, (keys * 2).astype("<i8").tobytes()),
            )
        conn.execute(
            "INSERT INTO query_cache VALUES (0, 7, ?, ?, 0)",
            (base[:8].astype("<i8").tobytes(), base[:8].astype("<i8").tobytes()),
        )
        conn.commit()
        conn.close()

        registry = MetricsRegistry(enabled=True)
        with scoped_registry(registry):
            service = IndexService.build(base, family=FAMILY, n_shards=N_SHARDS)
            with RuntimeStore(path) as store:
                assert store.meta_get("version") == "1"
                with ServerThread(service, registry=registry, store=store) as srv:
                    with HttpIndexClient(srv.host, srv.port) as client:
                        fresh = np.concatenate(batches)
                        resp = client.lookup(fresh.tolist())
                        stats = client.stats()
            service.close()
        assert all(resp["found"])  # every logged op replayed, in order
        assert resp["values"] == (fresh * 2).tolist()
        # Known counters carry on from their persisted totals ...
        assert stats["service"]["n_lookups"] == 700 + fresh.size
        assert stats["service"]["merges"] == 4
        assert stats["http"]["http_keys_inserted_total"] == 150
        # ... and what the old version left behind is neither read nor
        # touched: no cache field comes back, the table keeps its row.
        assert not [name for name in stats["service"] if "cache" in name]
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT COUNT(*) FROM query_cache").fetchone() == (1,)
        assert conn.execute(
            "SELECT value FROM counters WHERE name = 'service.cache_hits'"
        ).fetchone() == (11,)
        conn.close()


class TestOpLogPruning:
    def test_last_seq_is_stable_across_pruning(self, store, rng):
        assert store.last_seq() == 0
        for _ in range(4):
            store.record_op("insert", rng.integers(0, 100, 3))
        assert store.last_seq() == 4
        assert store.prune_op_log_upto(2) == 2
        # The high-water mark remembers pruned rows; new ops continue it.
        assert store.last_seq() == 4
        assert store.record_op("insert", rng.integers(0, 100, 3)) == 5

    def test_prune_upto_leaves_newer_ops(self, store, rng):
        batches = [rng.integers(0, 100, 3) for _ in range(5)]
        for keys in batches:
            store.record_op("insert", keys)
        assert store.prune_op_log_upto(3) == 3
        remaining = store.iter_ops()
        assert [op.seq for op in remaining] == [4, 5]
        for op, keys in zip(remaining, batches[3:]):
            assert np.array_equal(op.keys, keys)
        assert store.prune_op_log_upto(0) == 0  # no-op floor

    def test_durable_sync_prunes_only_captured_ops(self, tmp_path, rng):
        """Front-door durable_sync: flushed generation ⇒ op rows deleted."""
        from repro.server.app import HttpFrontDoor
        from repro.store import DurableStore

        base = np.unique(rng.integers(0, 10**8, 1_200))
        registry = MetricsRegistry(enabled=True)
        with scoped_registry(registry):
            service = IndexService.build(
                base, family=FAMILY, n_shards=N_SHARDS,
                store=DurableStore(tmp_path / "data"),
                staleness_threshold=10.0,
            )
            with RuntimeStore(tmp_path / "runtime.db") as rt:
                front = HttpFrontDoor(service, registry=registry, store=rt)
                fresh = int(base[-1]) + np.arange(1, 40)
                for chunk in np.array_split(fresh, 3):
                    rt.record_op("insert", chunk, chunk * 2)
                    service.insert_many(chunk, chunk * 2)
                gen_before = service.durable_generation()
                assert front.durable_sync() == 3
                assert rt.op_count() == 0
                assert service.durable_generation() > gen_before
                assert rt.meta_get("durable_seq") == "3"
                assert rt.meta_get("durable_generation") == str(
                    service.durable_generation()
                )
                # A later op stays until the next sync captures it.
                rt.record_op("insert", fresh[:1])
                service.insert_many(fresh[:1])
                assert rt.op_count() == 1
                assert front.durable_sync() == 1
                assert rt.op_count() == 0
            service.close()
        with IndexService.open_snapshot(tmp_path / "data") as reopened:
            got = reopened.lookup_many(fresh)
            assert bool(got.found.all())

    def test_durable_sync_requires_both_layers(self, tmp_path, rng):
        from repro.server.app import HttpFrontDoor

        base = np.unique(rng.integers(0, 10**6, 500))
        service = IndexService.build(base, family=FAMILY, n_shards=N_SHARDS)
        try:
            with RuntimeStore(tmp_path / "runtime.db") as rt:
                rt.record_op("insert", base[:3])
                front = HttpFrontDoor(service, store=rt)
                assert front.durable_sync() == 0  # no DurableStore attached
                assert rt.op_count() == 1
        finally:
            service.close()

    def test_shutdown_syncs_through_server_thread(self, tmp_path, rng):
        """The graceful-shutdown path prunes the log before closing."""
        from repro.store import DurableStore

        base = np.unique(rng.integers(0, 10**8, 1_200))
        fresh = int(base[-1]) + np.arange(1, 30)
        registry = MetricsRegistry(enabled=True)
        with scoped_registry(registry):
            service = IndexService.build(
                base, family=FAMILY, n_shards=N_SHARDS,
                store=DurableStore(tmp_path / "data"),
                staleness_threshold=10.0,
            )
            with RuntimeStore(tmp_path / "runtime.db") as rt:
                with ServerThread(service, registry=registry, store=rt) as srv:
                    with HttpIndexClient(srv.host, srv.port) as client:
                        client.insert(fresh.tolist())
            service.close()
        with RuntimeStore(tmp_path / "runtime.db") as rt:
            assert rt.op_count() == 0  # shutdown's durable_sync pruned it
            assert int(rt.meta_get("durable_seq")) >= 1
        with IndexService.open_snapshot(tmp_path / "data") as reopened:
            got = reopened.lookup_many(fresh)
            assert bool(got.found.all())
            assert np.array_equal(got.values, fresh)  # default value = key
