"""Admission control for the HTTP front door.

A server that accepts every request it can parse melts down the
moment offered load exceeds capacity: queues grow without bound,
latency explodes, and by the time a response is written the client
has long since timed out.  :class:`AdmissionController` bounds the
damage with two knobs:

* ``max_inflight`` — batches executing concurrently.  A small lookup
  or insert batch that finds the service lock free runs on the
  event-loop thread itself (see :data:`LOOP_MAX_S` and
  :data:`LOOP_MAX_KEYS`); the worker pool (``max_inflight`` threads)
  runs everything else: range reads, inserts that would flush or
  merge, and the batches that are too large, met another batch
  holding the lock, or arrive while batches run long.  The service's
  own bookkeeping is lock-protected, so a small number is both safe
  and fast.
* ``max_pending`` — batches *queued* behind the in-flight ones.

A request arriving when ``queued + running == max_pending +
max_inflight`` is rejected immediately — the HTTP layer turns that
into ``429 Too Many Requests`` with a ``Retry-After`` hint derived
from the observed per-batch service time — instead of being buried
in an invisible backlog.  Rejection is *cheap* (no thread, no queue
slot), which is what lets the server recover the instant load drops.

Shutdown is graceful by construction: :meth:`close` flips the
controller into draining mode (new work is refused with
:class:`ClosingError` → ``503``) and :meth:`drain` waits until every
*admitted* batch has finished executing — accepted work is never
dropped, which the shutdown tests assert.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

from ..obs.metrics import MetricsRegistry, get_registry

__all__ = ["AdmissionController", "ClosingError", "OverloadedError"]

T = TypeVar("T")

#: Fallback per-batch estimate before any batch has completed, and
#: the floor of every ``Retry-After`` hint (HTTP wants whole seconds).
MIN_RETRY_AFTER_S = 1.0

#: EWMA weight of the latest batch in the service-time estimate.
SERVICE_TIME_ALPHA = 0.2

#: A batch runs on the event loop only while that estimate is below
#: this, and only if it has at most :data:`LOOP_MAX_KEYS` keys.
#: The loop saves the thread hop, an idle ``run_in_executor`` round
#: trip of ≈ 0.1–0.2 ms on two vCPUs, against ≈ 0.3 ms for a 256-key
#: ``IndexService.lookup_many``; but a loop batch stalls every
#: connection for its whole length, and while batches run long a
#: stalled loop also stops admission from queueing and refusing on
#: time.  5 ms is a ceiling, not a tuned value: it is far above the
#: wire-sized batches the loop is for, and far below the 0.25 s
#: batches of the overload test that need the pool.
LOOP_MAX_S = 0.005

#: The bound on the request in hand: the average above only learns
#: from batches already run, so a large batch goes to the pool however
#: short its predecessors were.  4096 keys cost ≈ 1.4 ms of
#: ``lookup_many`` plus the replies' ``tolist`` on a 40k-key, 4-shard
#: LIPP service (two vCPUs), inside :data:`LOOP_MAX_S`.
LOOP_MAX_KEYS = 4096


class OverloadedError(Exception):
    """Raised when the bounded request queue is full.

    ``retry_after_s`` is the suggested client back-off: the time the
    current backlog needs to clear at the observed per-batch service
    rate, rounded up to whole seconds.
    """

    def __init__(self, retry_after_s: float, queued: int, running: int):
        self.retry_after_s = float(retry_after_s)
        self.queued = int(queued)
        self.running = int(running)
        super().__init__(
            f"admission queue full ({queued} queued, {running} in flight); "
            f"retry after {retry_after_s:.0f}s"
        )


class ClosingError(Exception):
    """Raised for work submitted after shutdown began (HTTP: 503)."""


class AdmissionController:
    """Bounded request queue + worker pool for service batches.

    Create inside a running event loop.  :meth:`run` admits one
    callable, waits for a slot, executes it (a small batch on the loop
    when it can, otherwise on the pool), and returns its result; accounting
    (admitted / rejected / completed, in-flight and queued gauges,
    per-batch seconds) is the same on both paths and is mirrored into
    the metrics registry so ``/metrics`` exposes the overload state.
    """

    def __init__(
        self,
        max_pending: int = 64,
        max_inflight: int = 2,
        registry: MetricsRegistry | None = None,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self.max_pending = int(max_pending)
        self.max_inflight = int(max_inflight)
        self.registry = registry if registry is not None else get_registry()
        self._slots = asyncio.Semaphore(self.max_inflight)
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="http-batch"
        )
        #: Admitted batches not yet completed (queued + running).
        self._admitted = 0
        self._running = 0
        self._closing = False
        self._drained = asyncio.Event()
        self._drained.set()
        #: EWMA of per-batch wall seconds; guarded by a plain lock
        #: because it is updated from worker threads' completions.
        self._avg_batch_s = 0.0
        self._avg_lock = threading.Lock()
        reg = self.registry
        self._c_admitted = reg.counter("http_admitted_total")
        self._c_rejected = reg.counter("http_rejected_total")
        self._c_completed = reg.counter("http_completed_total")
        self._g_inflight = reg.gauge("http_inflight_batches")
        self._g_queued = reg.gauge("http_queued_batches")
        self._h_batch_s = reg.histogram("http_batch_seconds")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Admitted batches waiting for a worker slot."""
        return max(0, self._admitted - self._running)

    @property
    def running(self) -> int:
        """Batches currently executing (on the pool or the loop)."""
        return self._running

    @property
    def closing(self) -> bool:
        return self._closing

    def retry_after_s(self) -> float:
        """Suggested back-off: backlog clear time at the observed rate."""
        with self._avg_lock:
            avg = self._avg_batch_s
        if avg <= 0.0:
            return MIN_RETRY_AFTER_S
        backlog = self._admitted + 1  # the request being rejected
        per_slot = backlog / self.max_inflight
        return max(MIN_RETRY_AFTER_S, math.ceil(per_slot * avg))

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    async def run(
        self, fn: Callable[[], T], lock=None, n_keys: int = 0, write: bool = False, fits: Callable[[], bool] = lambda: True
    ) -> T:
        """Admit *fn*, execute it, return its result.

        Without *lock*, *fn* runs on the worker pool (a range read
        takes its own lock inside).  With one — the front door's
        ``_ReadWriteLock`` — *fn* is a batch of *n_keys* keys run under
        it: a lookup under a read share, or with *write* an insert
        under the whole lock.  It first yields to the loop once, so
        requests already readable are admitted or refused before this
        one holds the loop; then it runs on the loop if it is small
        (:data:`LOOP_MAX_KEYS`), batches are short (:data:`LOOP_MAX_S`),
        the lock is taken without waiting (``try_read`` / ``try_write``)
        and *fits* answers True under it, otherwise on the pool, waiting
        for the lock there.  Both paths account a batch alike.

        Raises :class:`ClosingError` once shutdown began and
        :class:`OverloadedError` when the bounded queue is full; the
        callable's own exceptions propagate unchanged.
        """
        if self._closing:
            raise ClosingError("server is draining")
        if self._admitted >= self.max_pending + self.max_inflight:
            self._c_rejected.inc()
            raise OverloadedError(self.retry_after_s(), self.queued, self._running)
        self._admitted += 1
        self._drained.clear()
        self._c_admitted.inc()
        self._g_queued.set(self.queued)
        loop = asyncio.get_running_loop()
        try:
            if lock is not None:
                await asyncio.sleep(0)
            async with self._slots:
                self._running += 1
                self._g_inflight.set(self._running)
                self._g_queued.set(self.queued)
                start = time.perf_counter()
                try:
                    if lock is None:
                        return await loop.run_in_executor(self._pool, fn)
                    if (
                        n_keys <= LOOP_MAX_KEYS
                        and self._avg_batch_s < LOOP_MAX_S
                        and (lock.try_write() if write else lock.try_read())
                    ):
                        try:
                            if fits():
                                return fn()
                        finally:
                            lock.release_write() if write else lock.release_read()

                    def locked() -> T:  # on the pool, waiting for the lock
                        with lock.write() if write else lock.read():
                            return fn()

                    return await loop.run_in_executor(self._pool, locked)
                finally:
                    elapsed = time.perf_counter() - start
                    self._running -= 1
                    self._observe_batch(elapsed)
        finally:
            self._admitted -= 1
            self._c_completed.inc()
            self._g_inflight.set(self._running)
            self._g_queued.set(self.queued)
            if self._admitted == 0:
                self._drained.set()

    def _observe_batch(self, elapsed: float) -> None:
        with self._avg_lock:
            if self._avg_batch_s == 0.0:
                self._avg_batch_s = elapsed
            else:
                self._avg_batch_s += SERVICE_TIME_ALPHA * (elapsed - self._avg_batch_s)
        self._h_batch_s.observe(elapsed)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse new work from now on (idempotent)."""
        self._closing = True

    async def drain(self, timeout: float | None = None) -> bool:
        """Wait until every admitted batch completed; True on success.

        Call :meth:`close` first — otherwise new admissions can keep
        the controller busy forever.  With a *timeout*, returns False
        once it elapses (in-flight work keeps running on the daemon
        pool; nothing is cancelled mid-batch).
        """
        try:
            await asyncio.wait_for(self._drained.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    def shutdown_pool(self) -> None:
        """Stop the worker pool once drained (idempotent)."""
        self._pool.shutdown(wait=True, cancel_futures=False)
