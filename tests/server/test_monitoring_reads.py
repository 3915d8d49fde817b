"""Monitoring reads take the reader lock, off the event loop.

``GET /v1/stats`` reads ``IndexService.n_keys``, which probes every
shard that has a non-empty memtable, and ``GET /v1/health`` reads
every shard's ``n_keys``.  Answered on the event-loop thread outside
the front door's reader/writer lock, a poll raced the in-place merge
an insert was running on a pool thread: polls answered 500 and
acknowledged keys went missing.  A ``GET /metrics`` scrape pulls the
same books through the registry and is a monitoring read too.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.obs.metrics import MetricsRegistry, scoped_registry
from repro.server import HttpIndexClient, HttpStatusError, ServerThread
from repro.serving import IndexService


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


def test_metrics_scrape_waits_for_the_service_off_the_loop(keyset):
    """A scrape that meets a writer waits on a pool thread: another
    connection's request is answered meanwhile, and the scrape answers
    once the writer leaves."""
    service = IndexService.build(keyset, family="lipp", n_shards=2)
    held, release = threading.Event(), threading.Event()
    scraped: list[int] = []
    with ServerThread(service) as srv:

        def writer() -> None:  # a merge holding the service
            with srv.front._rwlock.write():
                held.set()
                release.wait(10)

        def scrape() -> None:
            with HttpIndexClient(srv.host, srv.port) as client:
                scraped.append(client.request("GET", "/metrics")[0])

        hold = threading.Thread(target=writer, daemon=True)
        hold.start()
        assert held.wait(10)
        scraper = threading.Thread(target=scrape, daemon=True)
        scraper.start()
        time.sleep(0.2)  # the scrape is now waiting on the lock
        try:
            with HttpIndexClient(srv.host, srv.port) as client:
                t0 = time.perf_counter()
                status = client.request("GET", "/nope")[0]
                elapsed = time.perf_counter() - t0
            assert not scraped, "the scrape read the service under a writer"
        finally:
            release.set()
            hold.join(10)
            scraper.join(10)
    assert status == 404
    assert elapsed < 0.2, f"the 404 waited {elapsed:.3f} s behind the writer"
    assert scraped == [200]


def test_metrics_scrape_counts_what_the_server_served(keyset, rng):
    """``GET /metrics`` is the one way a live server's counters leave
    the process: after reads and writes over HTTP it reports them."""
    registry = MetricsRegistry(enabled=True)
    fresh = int(keyset[-1]) + np.arange(1, 501)
    with scoped_registry(registry):
        with IndexService.build(keyset, family="lipp", n_shards=2) as service:
            with ServerThread(service, registry=registry) as srv:
                with HttpIndexClient(srv.host, srv.port) as client:
                    for chunk in np.array_split(rng.choice(keyset, 2000), 4):
                        client.lookup(chunk.tolist())
                    client.insert(fresh.tolist())
                    status, _headers, payload = client.request("GET", "/metrics")
    text = payload.decode("utf-8")
    assert status == 200
    assert "service_lookups_total 2000" in text.splitlines()
    assert "service_inserts_total 500" in text.splitlines()
    assert "http_keys_looked_up_total 2000" in text.splitlines()
    assert "http_keys_inserted_total 500" in text.splitlines()
