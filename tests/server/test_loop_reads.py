"""Small batches run on the event loop whenever the service lock is free.

A lookup batch of at most ``LOOP_MAX_KEYS`` keys that can take the
front door's read lock without waiting runs on the loop thread; one
that finds a writer holding or waiting for the lock runs on the
worker pool, as range reads always do, and so does every larger
lookup and every lookup while batches run long.  An insert batch is
held to the same bounds, takes the whole lock without waiting, and
runs on the loop only if it merely buffers: one that would flush or
merge runs on the pool.  The loop itself never waits for a writer or
for a large read, a waiting writer goes before later readers on
either path, and both paths account a batch the same way.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, scoped_registry
from repro.server import AdmissionController, HttpIndexClient, RuntimeStore, ServerThread
from repro.server.admission import LOOP_MAX_KEYS, LOOP_MAX_S
from repro.server.app import _ReadWriteLock
from repro.serving import IndexService
from repro.store import DurableStore

from .conftest import FAMILY, N_SHARDS, SlowService


def _wait_for(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never came true"
        time.sleep(0.001)


class TestTryRead:
    def test_refused_while_a_writer_holds_the_lock(self):
        lock = _ReadWriteLock()
        held, release = threading.Event(), threading.Event()

        def writer() -> None:
            with lock.write():
                held.set()
                release.wait(10)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        assert held.wait(10)
        assert not any(lock.try_read() for _ in range(1000))
        assert lock._readers == 0
        release.set()
        thread.join(10)
        assert lock.try_read()
        lock.release_read()
        assert lock._readers == 0

    @pytest.mark.parametrize("late", ["try_read", "read"])
    def test_refused_while_a_writer_waits_and_the_writer_goes_first(self, late):
        lock = _ReadWriteLock()
        assert lock.try_read()  # a read in flight makes the writer wait
        order: list[str] = []

        def writer() -> None:
            with lock.write():
                order.append("write")
                time.sleep(0.05)

        def late_reader() -> None:  # arrives only after the writer queued
            if late == "read":
                with lock.read():
                    order.append("read")
                return
            while not lock.try_read():
                time.sleep(0.001)
            order.append("read")
            lock.release_read()

        w = threading.Thread(target=writer, daemon=True)
        w.start()
        _wait_for(lambda: lock._writers_waiting == 1)
        assert not any(lock.try_read() for _ in range(1000))
        assert lock._readers == 1
        r = threading.Thread(target=late_reader, daemon=True)
        r.start()
        time.sleep(0.05)  # the late reader is held back meanwhile
        assert order == []
        lock.release_read()
        w.join(10)
        r.join(10)
        assert order == ["write", "read"]
        assert lock._readers == 0 and lock._writers_waiting == 0

    def test_stress_no_reader_overlaps_a_writer(self):
        lock = _ReadWriteLock()
        guard = threading.Lock()
        inside = {"readers": 0, "writers": 0}
        overlaps: list[dict] = []
        deadline = time.monotonic() + 0.5

        def enter(kind: str, other: str) -> None:
            with guard:
                inside[kind] += 1
                if inside[other] or inside["writers"] > 1:
                    overlaps.append(dict(inside))

        def leave(kind: str) -> None:
            with guard:
                inside[kind] -= 1

        def writer(loop_side: bool) -> None:
            while time.monotonic() < deadline:
                if loop_side:
                    if not lock.try_write():
                        continue
                    try:
                        enter("writers", "readers")
                        leave("writers")
                    finally:
                        lock.release_write()
                else:
                    with lock.write():
                        enter("writers", "readers")
                        time.sleep(0)
                        leave("writers")

        def reader(loop_side: bool) -> None:
            while time.monotonic() < deadline:
                if loop_side:
                    if not lock.try_read():
                        continue
                    try:
                        enter("readers", "writers")
                        leave("readers")
                    finally:
                        lock.release_read()
                else:
                    with lock.read():
                        enter("readers", "writers")
                        leave("readers")

        workers = [
            threading.Thread(target=writer, args=(loop_side,), daemon=True)
            for loop_side in (True, False, False)
        ]
        workers += [
            threading.Thread(target=reader, args=(loop_side,), daemon=True)
            for loop_side in (True, True, False, False)
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in workers)
        assert overlaps == []
        assert lock._readers == 0 and lock._writers_waiting == 0 and not lock._writing


class TestAccountingParity:
    def test_loop_and_pool_reads_account_alike(self):
        async def scenario():
            reg = MetricsRegistry(enabled=True)
            ctl = AdmissionController(max_pending=4, max_inflight=2, registry=reg)
            lock = _ReadWriteLock()
            loop_thread = threading.current_thread()

            def read():
                return threading.current_thread()

            def books():
                return (
                    reg.counter("http_admitted_total").value,
                    reg.counter("http_completed_total").value,
                    reg.histogram("http_batch_seconds").count,
                )

            assert books() == (0, 0, 0)
            assert await ctl.run(read, lock=lock) is loop_thread
            on_loop = books()
            assert ctl.queued == 0 and ctl.running == 0

            held, release = threading.Event(), threading.Event()

            def writer() -> None:
                with lock.write():
                    held.set()
                    release.wait(10)

            hold = threading.Thread(target=writer, daemon=True)
            hold.start()
            assert held.wait(10)
            pending = asyncio.ensure_future(ctl.run(read, lock=lock))
            await asyncio.sleep(0.05)
            assert not pending.done()  # waiting out the writer on the pool
            release.set()
            assert await pending is not loop_thread
            hold.join(10)
            on_pool = books()
            assert ctl.queued == 0 and ctl.running == 0

            assert on_loop == (1, 1, 1)
            assert [b - a for a, b in zip(on_loop, on_pool)] == [1, 1, 1]
            assert reg.counter("http_rejected_total").value == 0
            ctl.shutdown_pool()

        asyncio.run(scenario())

    def test_large_reads_leave_the_loop_however_short_the_past(self):
        async def scenario():
            ctl = AdmissionController(registry=MetricsRegistry(enabled=False))
            lock = _ReadWriteLock()
            here = threading.current_thread()
            for n_keys, on_loop in [
                (LOOP_MAX_KEYS, True),
                (LOOP_MAX_KEYS + 1, False),
                (1, True),
            ]:
                thread = await ctl.run(
                    threading.current_thread, lock=lock, n_keys=n_keys
                )
                assert (thread is here) is on_loop, n_keys
            assert ctl._avg_batch_s < LOOP_MAX_S
            assert lock._readers == 0
            ctl.shutdown_pool()

        asyncio.run(scenario())

    def test_reads_leave_the_loop_while_batches_run_long(self):
        async def scenario():
            ctl = AdmissionController(registry=MetricsRegistry(enabled=False))
            lock = _ReadWriteLock()
            ctl._observe_batch(10 * LOOP_MAX_S)
            thread = await ctl.run(threading.current_thread, lock=lock)
            assert thread is not threading.current_thread()
            assert lock._readers == 0
            ctl.shutdown_pool()

        asyncio.run(scenario())


class _SlowWrites(SlowService):
    """Inserts hold the writer lock for ``delay_s``; lookups run at
    full speed and note when, and on which thread, they start."""

    def __init__(self, inner: IndexService, delay_s: float):
        super().__init__(inner, delay_s)
        self.insert_done = float("inf")
        self.lookups: list[tuple[float, str]] = []

    def lookup_many(self, keys):
        self.lookups.append((time.perf_counter(), threading.current_thread().name))
        return self._inner.lookup_many(keys)

    def insert_many(self, keys, values=None):
        try:
            return super().insert_many(keys, values)
        finally:
            self.insert_done = time.perf_counter()


def test_the_loop_never_waits_on_a_writer(rng):
    keys = np.unique(rng.integers(0, 10**8, 1_200))
    # All 64 fresh keys land in the last of the three ~400-key shards:
    # 64 / 400 crosses the 0.1 staleness threshold, so the insert runs
    # (and merges) on the pool, and the loop stays free to refuse.
    fresh = np.setdiff1d(np.unique(rng.integers(10**8, 2 * 10**8, 64)), keys)
    registry = MetricsRegistry(enabled=True)
    with scoped_registry(registry):
        service = IndexService.build(keys, family=FAMILY, n_shards=N_SHARDS)
        assert not service.stays_buffered(fresh)
        slow = _SlowWrites(service, delay_s=0.5)
        replies: dict[str, dict] = {}
        try:
            with ServerThread(slow, registry=registry) as srv:

                def call(name: str, fn) -> threading.Thread:
                    def go() -> None:
                        with HttpIndexClient(srv.host, srv.port) as client:
                            replies[name] = fn(client)

                    thread = threading.Thread(target=go, daemon=True)
                    thread.start()
                    return thread

                insert = call("insert", lambda c: c.insert(fresh.tolist()))
                _wait_for(lambda: srv.front._rwlock._writing)
                with HttpIndexClient(srv.host, srv.port) as client:
                    t0 = time.perf_counter()
                    status = client.request("GET", "/nope")[0]
                    not_found_s = time.perf_counter() - t0
                lookup = call("lookup", lambda c: c.lookup(fresh.tolist()))
                admitted = registry.counter("http_admitted_total")
                _wait_for(lambda: admitted.value == 2)
                sent_during_write = srv.front._rwlock._writing
                insert.join(30)
                lookup.join(30)
        finally:
            service.close()
    assert status == 404
    assert not_found_s < 0.2, f"the 404 waited {not_found_s:.3f} s behind the writer"
    assert sent_during_write
    assert replies["insert"]["accepted"] == fresh.size
    [(started, thread_name)] = slow.lookups
    assert started >= slow.insert_done
    assert thread_name.startswith("http-batch")  # refused on the loop
    assert all(replies["lookup"]["found"])
    assert registry.counter("http_completed_total").value == 2


class _SlowLargeReads(SlowService):
    """Range reads and lookups above ``LOOP_MAX_KEYS`` keys sleep
    ``delay_s``; small lookups run at full speed.  Each slow read notes
    its thread and sets ``started`` when it begins."""

    def __init__(self, inner: IndexService, delay_s: float):
        super().__init__(inner, delay_s)
        self.started = threading.Event()
        self.threads: list[str] = []

    def _slow(self) -> None:
        self.threads.append(threading.current_thread().name)
        self.started.set()
        time.sleep(self._delay_s)

    def lookup_many(self, keys):
        if len(keys) > LOOP_MAX_KEYS:
            self._slow()
        return self._inner.lookup_many(keys)

    def range_arrays(self, low, high):
        self._slow()
        return self._inner.range_arrays(low, high)


@pytest.mark.parametrize("read", ["large_lookup", "range"])
def test_health_answers_while_a_large_read_runs(rng, read):
    keys = np.unique(rng.integers(0, 10**8, 1_200))
    registry = MetricsRegistry(enabled=True)
    with scoped_registry(registry):
        service = IndexService.build(keys, family=FAMILY, n_shards=N_SHARDS)
        slow = _SlowLargeReads(service, delay_s=0.5)
        replies: dict[str, dict] = {}
        try:
            with ServerThread(slow, registry=registry) as srv:

                def go() -> None:
                    with HttpIndexClient(srv.host, srv.port) as client:
                        if read == "range":
                            replies[read] = client.range(0, 10**8)
                        else:
                            big = np.resize(keys, LOOP_MAX_KEYS + 1)
                            replies[read] = client.lookup(big.tolist())

                thread = threading.Thread(target=go, daemon=True)
                thread.start()
                assert slow.started.wait(10)
                with HttpIndexClient(srv.host, srv.port) as client:
                    t0 = time.perf_counter()
                    health = client.health()
                    health_s = time.perf_counter() - t0
                    small = client.lookup(keys[:8].tolist())
                still_running = thread.is_alive()
                thread.join(30)
        finally:
            service.close()
    assert health_s < 0.2, f"/v1/health waited {health_s:.3f} s behind a {read}"
    assert still_running
    assert health["admission"]["running"] == 1
    assert all(small["found"])
    [thread_name] = slow.threads
    assert thread_name.startswith("http-batch")
    if read == "range":
        assert replies[read]["n"] == keys.size
    else:
        assert replies[read]["n"] == LOOP_MAX_KEYS + 1
        assert all(replies[read]["found"])


class _InsertThreads(SlowService):
    """Notes the thread each insert runs on; range reads sleep
    ``delay_s`` and set ``range_started`` when they begin."""

    def __init__(self, inner: IndexService, delay_s: float = 0.0):
        super().__init__(inner, delay_s)
        self.insert_threads: list[str] = []
        self.range_started = threading.Event()

    def insert_many(self, keys, values=None):
        self.insert_threads.append(threading.current_thread().name)
        return self._inner.insert_many(keys, values)

    def lookup_many(self, keys):
        return self._inner.lookup_many(keys)

    def range_arrays(self, low, high):
        self.range_started.set()
        time.sleep(self._delay_s)
        return self._inner.range_arrays(low, high)


def _fresh(rng, keys: np.ndarray, n: int, low: int = 10**8) -> np.ndarray:
    """*n* keys in ``[low, low + 10**7)`` that *keys* does not hold."""
    return np.setdiff1d(np.unique(rng.integers(low, low + 10**7, 4 * n)), keys)[:n]


class TestLoopWrites:
    """Which thread an insert batch runs on, and that it lands."""

    @staticmethod
    def _serve(service, tmp_path, inserts, *, delay_s=0.0, during_range=False):
        """Send *inserts* (key arrays) one after another, then look
        them up; returns each insert's thread and the op-log length."""
        wrapped = _InsertThreads(service, delay_s)
        log = RuntimeStore(tmp_path / "runtime.db")
        with ServerThread(wrapped, registry=MetricsRegistry(enabled=True), store=log) as srv:
            with HttpIndexClient(srv.host, srv.port) as client:
                ranged = None
                if during_range:

                    def go() -> None:
                        with HttpIndexClient(srv.host, srv.port) as other:
                            other.range(0, 10**8)

                    ranged = threading.Thread(target=go, daemon=True)
                    ranged.start()
                    assert wrapped.range_started.wait(10)
                for batch in inserts:
                    assert client.insert(batch.tolist())["accepted"] == batch.size
                if ranged is not None:
                    ranged.join(30)
                for batch in inserts:
                    assert all(client.lookup(batch.tolist())["found"])
                logged = log.op_count()
        return wrapped.insert_threads, logged

    def test_a_small_insert_runs_on_the_loop(self, rng, tmp_path):
        keys = np.unique(rng.integers(0, 2 * 10**8, 1_200))
        service = IndexService.build(keys, family=FAMILY, n_shards=N_SHARDS)
        small = _fresh(rng, keys, 8)
        assert service.stays_buffered(small)
        threads, logged = self._serve(service, tmp_path, [small])
        assert threads == ["http-server"]
        assert logged == 1  # logged before it was applied, on the loop too
        assert service.stats.merges == 0

    def test_an_insert_crossing_the_staleness_threshold_runs_on_the_pool(
        self, rng, tmp_path
    ):
        keys = np.unique(rng.integers(0, 2 * 10**8, 1_200))
        service = IndexService.build(keys, family=FAMILY, n_shards=N_SHARDS)
        many = _fresh(rng, keys, 64)  # 64 into one ~400-key shard > 0.1
        assert not service.stays_buffered(many)
        threads, __ = self._serve(service, tmp_path, [many])
        [thread] = threads
        assert thread.startswith("http-batch")
        assert service.stats.merges == 1

    def test_an_insert_reaching_the_flush_threshold_runs_on_the_pool(
        self, rng, tmp_path
    ):
        keys = np.unique(rng.integers(0, 2 * 10**8, 1_200))
        service = IndexService.build(
            keys, family=FAMILY, n_shards=N_SHARDS, staleness_threshold=100.0,
            store=DurableStore(tmp_path / "data"), flush_threshold=8,
        )
        fresh = _fresh(rng, keys, 12)
        threads, logged = self._serve(service, tmp_path, [fresh[:4], fresh[4:]])
        assert threads[0] == "http-server"
        assert threads[1].startswith("http-batch")  # 4 + 8 unflushed >= 8
        assert service.stats.flushes == 1 and service.stats.merges == 0
        assert logged == 0  # that flush's durable sync pruned both ops

    def test_an_insert_over_the_key_bound_runs_on_the_pool(self, rng, tmp_path):
        keys = np.unique(rng.integers(0, 2 * 10**8, 1_200))
        service = IndexService.build(
            keys, family=FAMILY, n_shards=N_SHARDS, staleness_threshold=100.0
        )
        large = _fresh(rng, keys, LOOP_MAX_KEYS + 1)
        assert large.size == LOOP_MAX_KEYS + 1
        assert service.stays_buffered(large)
        threads, __ = self._serve(service, tmp_path, [large])
        [thread] = threads
        assert thread.startswith("http-batch")

    def test_an_insert_meeting_a_pool_reader_runs_on_the_pool(self, rng, tmp_path):
        keys = np.unique(rng.integers(0, 10**8, 1_200))
        service = IndexService.build(keys, family=FAMILY, n_shards=N_SHARDS)
        small = _fresh(rng, keys, 4, low=5 * 10**7)
        assert service.stays_buffered(small)
        threads, __ = self._serve(
            service, tmp_path, [small], delay_s=0.3, during_range=True
        )
        [thread] = threads
        assert thread.startswith("http-batch")


class TestTryWrite:
    def test_refused_while_anyone_holds_or_waits_for_the_lock(self):
        lock = _ReadWriteLock()
        assert lock.try_read()
        assert not lock.try_write()  # a reader in flight
        done = threading.Event()

        def writer() -> None:
            with lock.write():
                done.wait(10)

        waiting = threading.Thread(target=writer, daemon=True)
        waiting.start()
        _wait_for(lambda: lock._writers_waiting == 1)
        assert not lock.try_write()  # a writer waiting
        lock.release_read()
        _wait_for(lambda: lock._writing)
        assert not lock.try_write() and not lock.try_read()  # a writer holding
        done.set()
        waiting.join(10)
        assert lock.try_write()
        assert not lock.try_write() and not lock.try_read()
        lock.release_write()
        # A writer woken by the last reader but not yet holding the lock.
        lock._writers_waiting += 1
        assert not lock.try_write() and not lock.try_read()
        lock._writers_waiting -= 1
        assert not lock._writing and lock._readers == 0
