"""Runtime store: WAL persistence, op-log replay, restart recovery.

The store's contract is crash-shaped: ``record_op`` logs *before* the
batch is applied, and :meth:`iter_ops` on a reopened file hands back
every accepted write in arrival order — which the end-to-end tests
exercise through full HTTP restart cycles.  Nothing else is stored:
counters are per process, so a restarted server counts only what it
served and its counters agree with the ledger they are pulled from.
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


def _tables(path) -> set[str]:
    conn = sqlite3.connect(path)
    try:
        rows = conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
        ).fetchall()
    finally:
        conn.close()
    return {name for (name,) in rows}


class TestStoreUnit:
    def test_wal_mode_and_only_the_op_log(self, store):
        assert store.journal_mode() == "wal"
        assert _tables(store.path) == {"op_log"}

    def test_op_log_roundtrip_preserves_order_and_bits(self, store, rng):
        batches = [rng.integers(-(2**62), 2**62, n) for n in (1, 17, 300)]
        for i, keys in enumerate(batches):
            vals = None if i == 0 else keys * 2
            store.record_op(keys, vals)
        ops = store.iter_ops()
        assert [op.seq for op in ops] == sorted(op.seq for op in ops)
        assert len(ops) == store.op_count() == 3
        for i, (op, keys) in enumerate(zip(ops, batches)):
            assert np.array_equal(op.keys, keys)
            if i == 0:
                assert op.values is None
            else:
                assert np.array_equal(op.values, keys * 2)

    def test_rows_keep_the_columns_older_readers_parse(self, store, rng):
        """``op`` / ``ts`` are still filled, so an older release that
        replays only ``op = 'insert'`` rows reads this file whole."""
        keys = rng.integers(0, 1000, 5)
        store.record_op(keys)
        conn = sqlite3.connect(store.path)
        try:
            ((op, ts, n_keys),) = conn.execute("SELECT op, ts, n_keys FROM op_log").fetchall()
        finally:
            conn.close()
        assert (op, n_keys) == ("insert", 5) and ts > 0

    def test_prune_keeps_newest(self, store, rng):
        for _ in range(5):
            store.record_op(rng.integers(0, 100, 4))
        seqs = [op.seq for op in store.iter_ops()]
        assert store.prune_op_log_upto(seqs[2]) == 3
        assert [op.seq for op in store.iter_ops()] == seqs[-2:]

    def test_survives_reopen(self, tmp_path, rng):
        path = tmp_path / "r.db"
        keys = rng.integers(0, 1000, 6)
        with RuntimeStore(path) as first:
            first.record_op(keys)
        with RuntimeStore(path) as second:
            assert second.journal_mode() == "wal"
            (op,) = second.iter_ops()
            assert np.array_equal(op.keys, keys)


def _assert_counters_match_ledger(registry: MetricsRegistry, stats: dict) -> None:
    """The counters a process exports agree with its own ledger: keys
    read with the reads the priced histograms hold, merges with the
    merge clock's observations."""
    counters, histograms = registry.counters(), registry.histograms()
    priced = sum(
        h.count for name, h in histograms.items() if name.startswith("service_lookup_sim_ns")
    )
    assert counters["service_lookups_total"] == priced == stats["service"]["n_lookups"]
    assert stats["service"]["merges"] == registry.histogram("service_merge_seconds").count


class TestRestartRecovery:
    def test_http_inserts_survive_a_restart(self, tmp_path, rng):
        """Accepted writes come back after the process dies; counters
        start again at 0."""
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
        assert registry2.counter("http_replayed_ops_total").value == 1
        # What this process served: the replayed batch, one lookup request.
        assert stats["http"]["http_requests_total.insert"] == 0
        assert stats["http"]["http_keys_inserted_total"] == 0
        assert stats["http"]["http_requests_total.lookup"] == 1
        assert stats["service"]["n_inserts"] == fresh.size
        assert stats["service"]["n_lookups"] == fresh.size
        assert not [name for name in stats["http"] if name.startswith("service")]

    def test_two_processes_on_one_store_each_count_what_they_served(self, tmp_path, rng):
        """Each process reads 300 keys and writes enough to merge.  The
        second one replays the first's writes and counts that replay,
        but none of the first's reads or merges."""
        base = np.unique(rng.integers(0, 10**8, 1_200))
        store_path = tmp_path / "runtime.db"
        served = []
        for run in range(2):
            fresh = int(base[-1]) + 1 + np.arange(run * 400, (run + 1) * 400)
            registry = MetricsRegistry(enabled=True)
            with scoped_registry(registry):
                service = IndexService.build(base, family=FAMILY, n_shards=N_SHARDS)
                with RuntimeStore(store_path) as store, ServerThread(
                    service, registry=registry, store=store
                ) as srv, HttpIndexClient(srv.host, srv.port) as client:
                    client.insert(fresh.tolist())
                    for _ in range(3):
                        client.lookup(rng.choice(base, 100).tolist())
                    stats = client.stats()
                    _assert_counters_match_ledger(registry, stats)
                    served.append(stats["service"])
                service.close()
        first, second = served
        assert first["n_lookups"] == second["n_lookups"] == 300
        assert first["merges"] > 0
        assert second["n_inserts"] == 800  # its own 400 and the 400 replayed

    def test_crash_restart_then_clean_restart_keeps_every_write(self, tmp_path, rng):
        """Crash image -> restart -> clean stop -> restart.

        The clean stop's durable sync prunes every op-log row up to
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
                            stats = client.stats()
                            _assert_counters_match_ledger(registry, stats)
                service.close()
            assert all(resp["found"])
            replayed.append(registry.counter("http_replayed_ops_total").value)
        assert replayed == [1, 0]  # the clean stop left nothing to replay

    def test_crash_after_an_in_run_flush_replays_only_what_came_after_it(self, tmp_path, rng):
        """The second of three insert batches crosses the flush
        threshold and commits a generation; that insert prunes the log
        it covers, so a power cut after the third replays one batch,
        not three, and loses no acknowledged write."""
        from repro.store import DurableStore

        base = np.unique(rng.integers(0, 10**8, 1_200))
        # Past the largest key: every batch lands on the last shard.
        batches = np.array_split(int(base[-1]) + np.arange(1, 91), 3)
        live, crash = tmp_path / "live", tmp_path / "crash"
        registry = MetricsRegistry(enabled=True)
        with scoped_registry(registry):
            service = IndexService.build(
                base, family=FAMILY, n_shards=N_SHARDS,
                store=DurableStore(live / "data"), staleness_threshold=10.0,
                flush_threshold=50,
            )
            with RuntimeStore(live / "runtime.db") as store:
                with ServerThread(service, registry=registry, store=store) as srv:
                    with HttpIndexClient(srv.host, srv.port) as client:
                        generations = []
                        for batch in batches:
                            client.insert(batch.tolist())
                            generations.append(service.durable_generation())
                        assert generations[0] < generations[1] == generations[2]
                        assert store.op_count() == 1
                        assert registry.counter("http_oplog_pruned_total").value == 2
                        shutil.copytree(live, crash)  # power cut
            service.close()

        registry = MetricsRegistry(enabled=True)
        with scoped_registry(registry):
            service = IndexService.open_snapshot(crash / "data", staleness_threshold=10.0)
            with RuntimeStore(crash / "runtime.db") as store:
                with ServerThread(service, registry=registry, store=store) as srv:
                    with HttpIndexClient(srv.host, srv.port) as client:
                        resp = client.lookup(np.concatenate(batches).tolist())
            service.close()
        assert registry.counter("http_replayed_ops_total").value == 1
        assert all(resp["found"])

    def test_an_op_log_without_a_data_dir_is_never_pruned(self, tmp_path, rng):
        """With no durable store, no run holds a write: every logged op
        stays, through the inserts and through shutdown."""
        base = np.unique(rng.integers(0, 10**8, 1_200))
        batches = np.array_split(int(base[-1]) + np.arange(1, 91), 3)
        registry = MetricsRegistry(enabled=True)
        with scoped_registry(registry):
            service = IndexService.build(
                base, family=FAMILY, n_shards=N_SHARDS, staleness_threshold=0.01,
                flush_threshold=10,
            )
            with RuntimeStore(tmp_path / "runtime.db") as store:
                with ServerThread(service, registry=registry, store=store) as srv:
                    with HttpIndexClient(srv.host, srv.port) as client:
                        for batch in batches:
                            client.insert(batch.tolist())
                        assert store.op_count() == 3
            service.close()
        assert service.stats.merges > 0
        assert registry.counter("http_oplog_pruned_total").value == 0
        with RuntimeStore(tmp_path / "runtime.db") as store:
            assert store.op_count() == 3


#: The runtime.db layout of the last release that stored counters
#: (and, before that, cache blocks), written out so the fixture does
#: not depend on code that no longer exists.
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
        fresh = int(base[-1]) + 1 + np.arange(150)
        # Three overlapping batches: each rewrites part of the one before
        # with new values, so only replay in seq order leaves batch 3's.
        batches = [(fresh[i * 40 : i * 40 + 70], fresh[i * 40 : i * 40 + 70] * (i + 2)) for i in range(3)]
        path = tmp_path / "runtime.db"
        conn = sqlite3.connect(path)
        conn.executescript(LEGACY_SCHEMA)
        conn.executemany(
            "INSERT INTO meta VALUES (?, ?)",
            [("version", "1"), ("durable_seq", "0"), ("durable_generation", "1")],
        )
        legacy_counters = [
            ("service.n_lookups", 700),
            ("service.n_inserts", 900),
            ("service.merges", 4),
            ("service.cache_hits", 11),
            ("http_keys_inserted_total", 150),
            ("http_requests_total.lookup", 9),
        ]
        conn.executemany("INSERT INTO counters VALUES (?, ?)", legacy_counters)
        # Un-pruned rows (nothing was durably synced), written out of
        # seq order: replay follows seq, not the order rows were stored.
        for seq in (3, 1, 2):
            keys, vals = batches[seq - 1]
            conn.execute(
                "INSERT INTO op_log (seq, ts, op, n_keys, keys, vals) VALUES (?, 0, 'insert', ?, ?, ?)",
                (seq, keys.size, keys.astype("<i8").tobytes(), vals.astype("<i8").tobytes()),
            )
        conn.execute(
            "INSERT INTO query_cache VALUES (0, 7, ?, ?, 0)",
            (base[:8].astype("<i8").tobytes(), base[:8].astype("<i8").tobytes()),
        )
        conn.commit()
        conn.close()
        expected = {}
        for keys, vals in batches:
            expected.update(zip(keys.tolist(), vals.tolist()))

        registry = MetricsRegistry(enabled=True)
        with scoped_registry(registry):
            service = IndexService.build(base, family=FAMILY, n_shards=N_SHARDS)
            with RuntimeStore(path) as store:
                assert [op.seq for op in store.iter_ops()] == [1, 2, 3]
                with ServerThread(service, registry=registry, store=store) as srv:
                    with HttpIndexClient(srv.host, srv.port) as client:
                        resp = client.lookup(fresh.tolist())
                        stats = client.stats()
                        _assert_counters_match_ledger(registry, stats)
            service.close()
        assert all(resp["found"])  # every logged op replayed ...
        assert resp["values"] == [expected[k] for k in fresh.tolist()]  # ... in seq order
        assert registry.counter("http_replayed_ops_total").value == 3
        # No persisted counter comes back: this process counts its own.
        assert stats["service"]["n_lookups"] == fresh.size
        assert stats["service"]["n_inserts"] == sum(keys.size for keys, _ in batches)
        assert stats["http"]["http_keys_inserted_total"] == 0
        assert stats["http"]["http_requests_total.lookup"] == 1
        assert not [name for name in stats["service"] if "cache" in name]
        # What the old version left behind is neither read nor touched.
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT COUNT(*) FROM query_cache").fetchone() == (1,)
        assert sorted(conn.execute("SELECT name, value FROM counters")) == sorted(legacy_counters)
        assert dict(conn.execute("SELECT key, value FROM meta")) == {
            "version": "1", "durable_seq": "0", "durable_generation": "1",
        }
        conn.close()


class TestOpLogPruning:
    def test_last_seq_is_stable_across_pruning(self, store, rng):
        assert store.last_seq() == 0
        for _ in range(4):
            store.record_op(rng.integers(0, 100, 3))
        assert store.last_seq() == 4
        assert store.prune_op_log_upto(2) == 2
        # The high-water mark remembers pruned rows; new ops continue it.
        assert store.last_seq() == 4
        assert store.record_op(rng.integers(0, 100, 3)) == 5

    def test_prune_truncates_the_wal(self, store, rng):
        """A prune's ``DELETE`` appends pages to the WAL; the checkpoint
        after it folds them into the database and empties the file, and
        the log keeps working after it."""
        wal = store.path.parent / (store.path.name + "-wal")
        for _ in range(20):
            store.record_op(rng.integers(0, 10**6, 200))
        assert wal.stat().st_size > 0
        assert store.prune_op_log_upto(store.last_seq()) == 20
        assert wal.stat().st_size == 0
        keys = rng.integers(-(2**62), 2**62, 300)
        seq = store.record_op(keys, keys * 3)
        (op,) = store.iter_ops()
        assert op.seq == seq == 21
        assert np.array_equal(op.keys, keys) and np.array_equal(op.values, keys * 3)

    def test_prune_upto_leaves_newer_ops(self, store, rng):
        batches = [rng.integers(0, 100, 3) for _ in range(5)]
        for keys in batches:
            store.record_op(keys)
        assert store.prune_op_log_upto(3) == 3
        remaining = store.iter_ops()
        assert [op.seq for op in remaining] == [4, 5]
        for op, keys in zip(remaining, batches[3:]):
            assert np.array_equal(op.keys, keys)
        assert store.prune_op_log_upto(0) == 0  # no-op floor

    def test_durable_sync_prunes_only_captured_ops(self, tmp_path, rng):
        """Front-door durable sync: flushed generation ⇒ op rows deleted."""
        from repro.server.app import HttpFrontDoor
        from repro.store import DurableStore

        base = np.unique(rng.integers(0, 10**8, 1_200))
        registry = MetricsRegistry(enabled=True)
        pruned = registry.counter("http_oplog_pruned_total")
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
                    rt.record_op(chunk, chunk * 2)
                    service.insert_many(chunk, chunk * 2)
                gen_before = service.durable_generation()
                assert front._durable_sync() == 3
                assert rt.op_count() == 0
                assert pruned.value == 3
                assert service.durable_generation() > gen_before
                # A later op stays until the next sync captures it.
                rt.record_op(fresh[:1])
                service.insert_many(fresh[:1])
                assert rt.op_count() == 1
                assert front._durable_sync() == 1
                assert rt.op_count() == 0
                assert pruned.value == 4
                assert rt.last_seq() == 4
            service.close()
        assert _tables(tmp_path / "runtime.db") == {"op_log"}
        with IndexService.open_snapshot(tmp_path / "data") as reopened:
            got = reopened.lookup_many(fresh)
            assert bool(got.found.all())

    def test_durable_sync_requires_both_layers(self, tmp_path, rng):
        from repro.server.app import HttpFrontDoor

        base = np.unique(rng.integers(0, 10**6, 500))
        service = IndexService.build(base, family=FAMILY, n_shards=N_SHARDS)
        try:
            with RuntimeStore(tmp_path / "runtime.db") as rt:
                rt.record_op(base[:3])
                front = HttpFrontDoor(service, store=rt)
                assert front._durable_sync() == 0  # no DurableStore attached
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
                        assert rt.op_count() == 1
            service.close()
        assert registry.counter("http_oplog_pruned_total").value == 1
        with RuntimeStore(tmp_path / "runtime.db") as rt:
            assert rt.op_count() == 0  # shutdown's durable sync pruned it
            assert rt.last_seq() == 1
        with IndexService.open_snapshot(tmp_path / "data") as reopened:
            got = reopened.lookup_many(fresh)
            assert bool(got.found.all())
            assert np.array_equal(got.values, fresh)  # default value = key

    def test_every_prune_runs_under_the_writer_lock_before_close(self, tmp_path, rng):
        """An insert that commits a generation prunes inside its
        exclusive section, and shutdown prunes once more under the
        writer lock before it closes the store: no reader ever sees a
        log row gone whose write is not yet in a run."""
        from repro.store import DurableStore

        class _Recording(RuntimeStore):
            def __init__(self, path):
                super().__init__(path)
                self.front = None
                self.events: list[tuple[str, bool]] = []

            def prune_op_log_upto(self, seq: int) -> int:
                self.events.append(("prune", self.front._rwlock._writing))
                return super().prune_op_log_upto(seq)

            def close(self) -> None:
                self.events.append(("close", self.front._rwlock._writing))
                super().close()

        base = np.unique(rng.integers(0, 10**8, 1_200))
        fresh = int(base[-1]) + np.arange(1, 61)
        service = IndexService.build(
            base, family=FAMILY, n_shards=N_SHARDS,
            store=DurableStore(tmp_path / "data"), staleness_threshold=10.0,
            flush_threshold=50,
        )
        rt = _Recording(tmp_path / "runtime.db")
        try:
            with ServerThread(service, store=rt) as srv:
                rt.front = srv.front
                with HttpIndexClient(srv.host, srv.port) as client:
                    client.insert(fresh.tolist())
                    assert rt.op_count() == 0
        finally:
            service.close()
        assert rt.events == [("prune", True), ("prune", True), ("close", False)]
