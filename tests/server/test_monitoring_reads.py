"""Monitoring reads take the reader lock, off the event loop.

``GET /v1/stats`` reads ``IndexService.n_keys``, which probes every
shard that has a non-empty memtable, and ``GET /v1/health`` reads
every shard's ``n_keys``.  Answered on the event-loop thread outside
the front door's reader/writer lock, a poll raced the in-place merge
an insert was running on a pool thread: polls answered 500 and
acknowledged keys went missing.  The ``--metrics-out`` tick is a
monitoring read too (plus a durable sync) and runs off the loop the
same way.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.cli import main
from repro.server import HttpIndexClient, HttpStatusError, RuntimeStore, ServerThread
from repro.serving import IndexService
from repro.store import DurableStore


class _WatchedService:
    """Delegates to an ``IndexService`` and records, for every
    monitoring read, whether the front door's reader lock was held and
    which thread made the call."""

    def __init__(self, inner: IndexService):
        self._inner = inner
        self.front = None
        self.reads: list[tuple[str, int, threading.Thread]] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _record(self, what: str) -> None:
        self.reads.append(
            (what, self.front._rwlock._readers, threading.current_thread())
        )

    @property
    def n_keys(self) -> int:
        self._record("n_keys")
        return self._inner.n_keys

    def health_report(self):
        self._record("health_report")
        return self._inner.health_report()


def test_monitoring_reads_hold_the_reader_lock_off_the_loop(keyset):
    watched = _WatchedService(IndexService.build(keyset, family="lipp", n_shards=2))
    with ServerThread(watched) as srv:
        watched.front = srv.front
        with HttpIndexClient(srv.host, srv.port) as client:
            assert client.stats()["n_keys"] == keyset.size
            assert client.health()["status"] == "ok"
    assert [what for what, _, _ in watched.reads] == ["n_keys", "health_report"]
    for what, readers, thread in watched.reads:
        assert readers >= 1, f"{what} read outside the reader lock"
        assert thread is not srv._thread, f"{what} read on the event-loop thread"


def test_stats_polls_during_merging_inserts_lose_nothing(rng):
    keys = np.unique(rng.integers(0, 10**9, 12_000))
    build = dict(family="lipp", n_shards=2, staleness_threshold=0.02)
    service = IndexService.build(keys, **build)
    twin = IndexService.build(keys, **build)
    batches = [rng.integers(0, 10**9, 300) for _ in range(60)]
    done = threading.Event()
    poll_statuses: list[int] = []

    def poll(host: str, port: int) -> None:
        with HttpIndexClient(host, port) as client:
            while not done.is_set():
                try:
                    client.stats()
                    poll_statuses.append(200)
                except HttpStatusError as exc:
                    poll_statuses.append(exc.status)

    with ServerThread(service) as srv:
        pollers = [
            threading.Thread(target=poll, args=(srv.host, srv.port), daemon=True)
            for _ in range(2)
        ]
        for thread in pollers:
            thread.start()
        with HttpIndexClient(srv.host, srv.port) as client:
            try:
                for batch in batches:
                    assert client.insert(batch.tolist())["accepted"] == batch.size
                    twin.insert_many(batch)
            finally:
                done.set()
                for thread in pollers:
                    thread.join(30)
            acked = np.unique(np.concatenate(batches))
            found = np.concatenate(
                [
                    client.lookup(chunk.tolist())["found"]
                    for chunk in np.array_split(acked, 8)
                ]
            )
            n_keys = client.stats()["n_keys"]
    assert twin.stats.merges > 0, "the scenario needs merges to race"
    assert poll_statuses and set(poll_statuses) == {200}
    assert int(np.count_nonzero(~np.asarray(found, dtype=bool))) == 0
    assert n_keys == twin.n_keys


def test_metrics_tick_waits_for_the_service_off_the_loop(keyset, tmp_path):
    """The ``--metrics-out`` tick snapshots under the reader lock and
    syncs under the writer lock.  Run on the event-loop thread, a tick
    that met a writer stalled every connection until the writer left
    (a 404 took 0.9 s of a 1 s hold)."""
    service = IndexService.build(keyset, family="lipp", n_shards=2)
    held = threading.Event()
    with ServerThread(
        service, metrics_out=str(tmp_path / "metrics.jsonl"), metrics_every_s=0.05
    ) as srv:

        def writer() -> None:  # a merge holding the service for 1 s
            with srv.front._rwlock.write():
                held.set()
                time.sleep(1.0)

        hold = threading.Thread(target=writer, daemon=True)
        hold.start()
        held.wait(10)
        time.sleep(0.2)  # a tick is now waiting on the lock
        with HttpIndexClient(srv.host, srv.port) as client:
            t0 = time.perf_counter()
            status = client.request("GET", "/nope")[0]
            elapsed = time.perf_counter() - t0
        hold.join(10)
    assert status == 404
    assert elapsed < 0.2, f"the 404 waited {elapsed:.3f} s behind the writer"


class _SlowFirstPrune(RuntimeStore):
    """Records prunes and the close; the first prune (a tick's) takes
    0.3 s, outside the service lock, as a slow disk would make it."""

    def __init__(self, path):
        super().__init__(path)
        self.events: list[str] = []
        self.pruning = threading.Event()

    def prune_op_log_upto(self, seq: int) -> int:
        self.events.append("prune")
        if not self.pruning.is_set():
            self.pruning.set()
            time.sleep(0.3)
        pruned = super().prune_op_log_upto(seq)
        self.events.append("pruned")
        return pruned

    def close(self) -> None:
        self.events.append("close")
        super().close()


def test_shutdown_waits_for_the_tick_in_flight(keyset, tmp_path):
    """The tick runs on a side thread, so cancelling the loop does not
    stop it: shutdown must let it finish before its own final sync
    closes the store under it."""
    service = IndexService.build(
        keyset, family="lipp", n_shards=2, store=DurableStore(tmp_path / "data")
    )
    store = _SlowFirstPrune(tmp_path / "runtime.db")
    metrics = tmp_path / "metrics.jsonl"
    srv = ServerThread(service, store=store, metrics_out=str(metrics), metrics_every_s=0.05)
    srv.start()
    try:
        assert store.pruning.wait(10)
    finally:
        srv.stop()
        service.close()
    assert store.events == ["prune", "pruned", "prune", "pruned", "close"]
    assert main(["metrics", "--in", str(metrics), "--validate"]) == 0
