"""Monitoring reads take the reader lock, off the event loop.

``GET /v1/stats`` reads ``IndexService.n_keys``, which probes every
shard that has a non-empty memtable, and ``GET /v1/health`` reads
every shard's ``n_keys``.  Answered on the event-loop thread outside
the front door's reader/writer lock, a poll raced the in-place merge
an insert was running on a pool thread: polls answered 500 and
acknowledged keys went missing.
"""

from __future__ import annotations

import threading

import numpy as np

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
