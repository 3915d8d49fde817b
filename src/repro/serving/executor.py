"""Executor specs and the process-parallel shard-serving backend.

:class:`ExecutorSpec` is the typed knob the serving API takes:
``"serial"`` runs shard work inline, and ``"process"`` runs shard
replicas in worker *processes* that serve lookups from shared-memory
index buffers — the backend whose throughput scales with cores.

Process mode (:class:`ProcessShardExecutor`):

* Every shard is published once (:func:`~repro.serving.shm.
  publish_index`): pickled structure plus one shared-memory segment
  holding the struct-of-arrays buffers.  Each of the shard's
  ``n_replicas`` workers attaches zero-copy read-only views.
* The router speaks a batch IPC protocol over one duplex pipe per
  worker: a request is ``("lookup", req_id, shard, keys)``, a response
  the per-shard :class:`~repro.indexes.base.BatchQueryStats` arrays.
  Calls are timeout-bounded (``spec.timeout_s``).
* Reads fan out to the *least-loaded live replica* of each shard.  A
  worker that dies or times out mid-batch is killed and respawned (the
  current publications are replayed into the fresh process) and the
  affected slices retried on another replica — bit-identical answers,
  because every replica serves the same published bytes.  Writes never
  reach workers: the router applies them to its authoritative
  in-process shards and republishes, and the service's memtable
  overlay covers the window in between.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from multiprocessing import get_context
from typing import TYPE_CHECKING

import numpy as np

from ..core.exceptions import IndexStateError
from ..obs.health import ReplicaHealth
from ..obs.metrics import get_registry
from .shm import ShardSegment, attach_segment_index, publish_index

if TYPE_CHECKING:
    from ..indexes.base import LearnedIndex

__all__ = ["ExecutorSpec", "ExecutorError", "ProcessShardExecutor"]

EXECUTOR_KINDS = ("serial", "process")

#: Environment override of the multiprocessing start method
#: ("fork" | "spawn" | "forkserver"); defaults to fork where available
#: (Linux — cheap worker startup), spawn elsewhere (macOS default).
MP_START_ENV = "REPRO_MP_START"

#: Total attempts a routed slice gets before the batch call fails
#: (first try plus retries on other replicas / respawned workers).
_MAX_ATTEMPTS = 3

#: Wall-clock granted to a worker to acknowledge an attach (covers
#: unpickling a large shard structure on a loaded machine).
_ATTACH_TIMEOUT = 60.0


class ExecutorError(IndexStateError):
    """A process-executor call failed beyond what failover can mask."""


@dataclass(frozen=True)
class ExecutorSpec:
    """Typed description of how shard work is executed.

    Attributes:
        kind: ``"serial"`` (inline) or ``"process"`` (shared-memory
            worker processes).
        n_workers: pool size; None picks ``min(n_shards, cpu_count)``
            (process mode never below *n_replicas*).
        n_replicas: process mode — workers eligible to serve each
            shard; reads go to the least-loaded live one, and a dead
            or timed-out worker fails over to the others.
        timeout_s: process mode — deadline per batch IPC round; a
            worker silent past it is killed, respawned, and its slices
            retried.
    """

    kind: str = "serial"
    n_workers: int | None = None
    n_replicas: int = 1
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in EXECUTOR_KINDS:
            raise IndexStateError(
                f"executor kind must be one of {EXECUTOR_KINDS}, got {self.kind!r}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise IndexStateError("n_workers must be >= 1")
        if self.n_replicas < 1:
            raise IndexStateError("n_replicas must be >= 1")
        if self.timeout_s <= 0:
            raise IndexStateError("timeout_s must be positive")

    @classmethod
    def parse(cls, value: "ExecutorSpec | str | None") -> "ExecutorSpec":
        """Coerce a spec, ``"kind"`` / ``"kind:N"`` string, or None."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            kind, sep, workers = value.partition(":")
            try:
                n_workers = int(workers) if sep else None
            except ValueError:
                raise IndexStateError(f"bad executor spec {value!r}") from None
            return cls(kind=kind, n_workers=n_workers)
        raise IndexStateError(
            f"executor must be an ExecutorSpec or string, got {type(value).__name__}"
        )

    def resolved_workers(self, n_shards: int) -> int:
        """Concrete pool size for *n_shards* shards on this machine."""
        if self.n_workers is not None:
            return max(self.n_workers, 1)
        cores = os.cpu_count() or 1
        base = max(min(max(n_shards, 1), cores), 1)
        return max(base, self.n_replicas) if self.kind == "process" else base


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(conn) -> None:
    """Shard-worker loop: attach published shards, serve lookups.

    Runs in a separate process.  State is the attached shards only;
    every message carries a request id echoed in the response.  Any
    exception is reported as an ``("err", req, message)`` response —
    the worker survives to serve the next request; only a closed pipe
    (parent gone or exit requested) ends the loop.
    """
    attached: dict[int, tuple["LearnedIndex", object]] = {}

    def _drop(shard_no: int) -> None:
        old = attached.pop(shard_no, None)
        if old is not None and old[1] is not None:
            old[1].close()  # type: ignore[union-attr]

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "exit":
                break
            op, req = msg[0], msg[1]
            try:
                if op == "lookup":
                    shard_no, keys = msg[2], msg[3]
                    entry = attached.get(shard_no)
                    if entry is None:
                        raise IndexStateError(f"shard {shard_no} is not attached")
                    batch = entry[0].lookup_many(keys)
                    out = (
                        "ok",
                        req,
                        (batch.found, batch.values, batch.levels, batch.search_steps),
                    )
                elif op == "attach":
                    shard_no, payload, name, table = msg[2], msg[3], msg[4], msg[5]
                    index, shm = attach_segment_index(payload, name, table)
                    _drop(shard_no)
                    attached[shard_no] = (index, shm)
                    out = ("ok", req, os.getpid())
                elif op == "detach":
                    _drop(msg[2])
                    out = ("ok", req, None)
                elif op == "ping":
                    out = ("ok", req, os.getpid())
                else:
                    out = ("err", req, f"unknown op {op!r}")
            except BaseException as exc:
                out = ("err", req, f"{type(exc).__name__}: {exc}")
            try:
                conn.send(out)
            except (BrokenPipeError, OSError):
                break
    finally:
        for shard_no in list(attached):
            _drop(shard_no)
        conn.close()


class _WorkerHandle:
    """Parent-side record of one worker process."""

    __slots__ = ("slot", "proc", "conn", "restarts", "in_flight", "served")

    def __init__(self, slot: int, proc, conn, restarts: int = 0):
        self.slot = slot
        self.proc = proc
        self.conn = conn
        self.restarts = restarts
        self.in_flight = 0
        self.served = 0


# ----------------------------------------------------------------------
# Parent-side executor
# ----------------------------------------------------------------------
class ProcessShardExecutor:
    """Replicated process pool serving shard lookups over IPC.

    Shard *s* is replicated on worker slots ``(s + r) % n_workers``
    for ``r < n_replicas`` — adjacent shards land on different slots,
    so a batch touching K shards spreads over ``min(K, n_workers)``
    processes even with one replica.  All public methods are
    serialised by an internal lock: one batch is in flight at a time,
    fanned out *within* the call — which is where the parallelism is.
    """

    def __init__(self, spec: ExecutorSpec, n_shards: int):
        self.spec = spec
        method = os.environ.get(MP_START_ENV) or (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        self._ctx = get_context(method)
        self.n_workers = spec.resolved_workers(n_shards)
        self.n_replicas = max(1, min(spec.n_replicas, self.n_workers))
        self._lock = threading.RLock()
        self._req = itertools.count(1)
        self._segments: dict[int, ShardSegment] = {}
        self._closed = False
        reg = get_registry()
        self._c_restarts = reg.counter("executor_worker_restarts_total")
        self._c_failovers = reg.counter("executor_failovers_total")
        self._c_timeouts = reg.counter("executor_timeouts_total")
        self._c_batches = reg.counter("executor_ipc_batches_total")
        self._g_live = reg.gauge("executor_live_workers")
        self._workers = [self._spawn(slot) for slot in range(self.n_workers)]
        self._set_live_gauge()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has torn the pool down."""
        return self._closed

    def replica_slots(self, shard_no: int) -> tuple[int, ...]:
        """Worker slots replicating *shard_no* (attach order)."""
        return tuple(
            (shard_no + r) % self.n_workers for r in range(self.n_replicas)
        )

    def segment_names(self) -> tuple[str, ...]:
        """Names of the live shared-memory segments (tests/debugging)."""
        with self._lock:
            return tuple(
                seg.name for seg in self._segments.values() if seg.name is not None
            )

    def restarts_total(self) -> int:
        """Total worker respawns since the pool started."""
        with self._lock:
            return sum(w.restarts for w in self._workers)

    def health(self) -> tuple[ReplicaHealth, ...]:
        """Per-replica liveness/load snapshot (obs surface)."""
        with self._lock:
            rows = []
            for w in self._workers:
                shards = tuple(
                    s for s in sorted(self._segments)
                    if w.slot in self.replica_slots(s)
                )
                rows.append(
                    ReplicaHealth(
                        slot=w.slot,
                        pid=w.proc.pid,
                        alive=w.proc.is_alive(),
                        shards=shards,
                        in_flight=w.in_flight,
                        served_batches=w.served,
                        restarts=w.restarts,
                    )
                )
            return tuple(rows)

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def publish(self, shard_no: int, index: "LearnedIndex") -> None:
        """(Re)publish one shard to its replicas, retiring the old epoch."""
        with self._lock:
            self._ensure_open()
            seg = publish_index(index)
            old = self._segments.get(shard_no)
            self._segments[shard_no] = seg
            try:
                for slot in self.replica_slots(shard_no):
                    self._attach_to(slot, shard_no, seg)
            except BaseException:
                self._segments.pop(shard_no, None)
                seg.close(unlink=True)
                if old is not None:
                    self._segments[shard_no] = old
                raise
            if old is not None:
                old.close(unlink=True)

    def withdraw(self, shard_no: int) -> None:
        """Drop a shard's publication (replicas detach, segment unlinks)."""
        with self._lock:
            seg = self._segments.pop(shard_no, None)
            if seg is None:
                return
            for slot in self.replica_slots(shard_no):
                try:
                    self._call(slot, ("detach", shard_no), timeout=self.spec.timeout_s)
                except ExecutorError:
                    self._respawn(slot)
            seg.close(unlink=True)

    # ------------------------------------------------------------------
    # Lookups (the hot path)
    # ------------------------------------------------------------------
    def lookup(
        self, tasks: list[tuple[int, np.ndarray]]
    ) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Serve ``(shard_no, keys)`` slices on the replica pool.

        Returns ``{shard_no: (found, values, levels, steps)}``.  Each
        slice goes to the least-loaded live replica of its shard; the
        call is bounded by ``spec.timeout_s`` per attempt, and a dead
        or silent worker is respawned with its slices retried
        (at most ``_MAX_ATTEMPTS`` attempts per slice).
        """
        if not tasks:
            return {}
        with self._lock:
            self._ensure_open()
            if self._reg_enabled():
                self._c_batches.inc()
            results: dict[int, tuple] = {}
            # req_id -> [shard_no, keys, slot, attempt]
            pending: dict[int, list] = {}
            for shard_no, keys in tasks:
                self._send_task(pending, shard_no, keys, attempt=1)
            deadline = time.monotonic() + self.spec.timeout_s
            while pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    deadline = self._handle_timeout(pending)
                    continue
                conns = {}
                for state in pending.values():
                    w = self._workers[state[2]]
                    conns[w.conn] = state[2]
                ready = mp_connection.wait(list(conns), timeout=min(remaining, 0.25))
                for conn in ready:
                    slot = conns[conn]
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        self._failover_slot(slot, pending)
                        break  # conns map is stale; recompute
                    tag, req, body = msg
                    state = pending.pop(req, None)
                    if state is None:
                        continue  # response from an abandoned attempt
                    worker = self._workers[slot]
                    worker.in_flight = max(worker.in_flight - 1, 0)
                    if tag == "err":
                        raise ExecutorError(
                            f"shard {state[0]} worker {slot} failed: {body}"
                        )
                    worker.served += 1
                    results[state[0]] = body
            return results

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker and unlink every published segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for w in self._workers:
                try:
                    w.conn.send(("exit",))
                except (BrokenPipeError, OSError):
                    pass
            for w in self._workers:
                w.proc.join(timeout=2.0)
                if w.proc.is_alive():
                    w.proc.terminate()
                    w.proc.join(timeout=1.0)
                if w.proc.is_alive():
                    w.proc.kill()
                    w.proc.join(timeout=1.0)
                w.conn.close()
            for seg in self._segments.values():
                seg.close(unlink=True)
            self._segments.clear()
            self._set_live_gauge()

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reg_enabled(self) -> bool:
        return get_registry().enabled

    def _set_live_gauge(self) -> None:
        if self._reg_enabled():
            self._g_live.set(
                0 if self._closed
                else sum(1 for w in self._workers if w.proc.is_alive())
            )

    def _ensure_open(self) -> None:
        if self._closed:
            raise ExecutorError("process executor is closed")

    def _spawn(self, slot: int, restarts: int = 0) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-shard-worker-{slot}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _WorkerHandle(slot, proc, parent_conn, restarts=restarts)

    def _respawn(self, slot: int) -> None:
        """Kill and replace a worker, replaying its shard attaches."""
        old = self._workers[slot]
        if old.proc.is_alive():
            old.proc.terminate()
            old.proc.join(timeout=1.0)
        if old.proc.is_alive():
            old.proc.kill()
            old.proc.join(timeout=1.0)
        old.conn.close()
        fresh = self._spawn(slot, restarts=old.restarts + 1)
        self._workers[slot] = fresh
        for shard_no, seg in self._segments.items():
            if slot in self.replica_slots(shard_no):
                self._attach_to(slot, shard_no, seg)
        if self._reg_enabled():
            self._c_restarts.inc()
        self._set_live_gauge()

    def _attach_to(self, slot: int, shard_no: int, seg: ShardSegment) -> None:
        self._call(
            slot,
            ("attach", shard_no, seg.payload, seg.name, seg.table),
            timeout=max(_ATTACH_TIMEOUT, self.spec.timeout_s),
            retry_respawn=True,
        )

    def _call(
        self,
        slot: int,
        msg: tuple,
        timeout: float,
        retry_respawn: bool = False,
    ):
        """Synchronous request/response to one worker (attach/detach).

        With *retry_respawn*, a dead worker is respawned and the call
        retried once — attach replay during respawn relies on this not
        recursing (the fresh worker starts with no attaches pending).
        """
        for attempt in (1, 2) if retry_respawn else (1,):
            w = self._workers[slot]
            req = next(self._req)
            try:
                if not w.proc.is_alive():
                    raise BrokenPipeError("worker process is not alive")
                w.conn.send((msg[0], req) + msg[1:])
                deadline = time.monotonic() + timeout
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ExecutorError(
                            f"worker {slot} did not answer {msg[0]!r} "
                            f"within {timeout:.1f}s"
                        )
                    if not w.conn.poll(min(remaining, 0.25)):
                        continue
                    tag, got_req, body = w.conn.recv()
                    if got_req != req:
                        continue  # stale response from an abandoned request
                    if tag == "err":
                        raise ExecutorError(f"worker {slot} {msg[0]}: {body}")
                    return body
            except (BrokenPipeError, EOFError, OSError) as exc:
                if retry_respawn and attempt == 1:
                    # Replace the dead process by hand (no attach replay:
                    # the caller is mid-attach already).
                    dead = self._workers[slot]
                    dead.conn.close()
                    self._workers[slot] = self._spawn(slot, dead.restarts + 1)
                    if self._reg_enabled():
                        self._c_restarts.inc()
                    continue
                raise ExecutorError(f"worker {slot} is gone: {exc}") from exc
        raise ExecutorError(f"worker {slot} kept failing {msg[0]!r}")

    def _send_task(
        self,
        pending: dict[int, list],
        shard_no: int,
        keys: np.ndarray,
        attempt: int,
        exclude: tuple[int, ...] = (),
    ) -> None:
        """Dispatch one slice to the least-loaded live replica."""
        if attempt > _MAX_ATTEMPTS:
            raise ExecutorError(
                f"shard {shard_no}: no replica answered after "
                f"{_MAX_ATTEMPTS} attempts"
            )
        candidates = [s for s in self.replica_slots(shard_no) if s not in exclude]
        if not candidates:
            candidates = list(self.replica_slots(shard_no))
        candidates.sort(key=lambda s: (self._workers[s].in_flight, s))
        last_exc: BaseException | None = None
        for slot in candidates:
            w = self._workers[slot]
            if not w.proc.is_alive():
                try:
                    self._respawn(slot)
                except ExecutorError as exc:
                    last_exc = exc
                    continue
                w = self._workers[slot]
            try:
                req = next(self._req)
                w.conn.send(("lookup", req, shard_no, keys))
            except (BrokenPipeError, OSError) as exc:
                last_exc = exc
                continue
            w.in_flight += 1
            pending[req] = [shard_no, keys, slot, attempt]
            return
        raise ExecutorError(
            f"shard {shard_no}: every replica is unreachable"
        ) from last_exc

    def _failover_slot(self, slot: int, pending: dict[int, list]) -> None:
        """A worker died mid-batch: respawn it, retry its slices elsewhere."""
        if self._reg_enabled():
            self._c_failovers.inc()
        stranded = [
            (req, state) for req, state in pending.items() if state[2] == slot
        ]
        for req, __ in stranded:
            pending.pop(req)
        self._respawn(slot)
        for __, (shard_no, keys, __slot, attempt) in stranded:
            # The respawned slot is attached again and eligible; prefer
            # the other replicas first via the load-sorted dispatch.
            self._send_task(pending, shard_no, keys, attempt + 1)

    def _handle_timeout(self, pending: dict[int, list]) -> float:
        """Deadline expired: kill silent workers, retry their slices.

        Returns the fresh deadline for the retry round.
        """
        if self._reg_enabled():
            self._c_timeouts.inc()
        silent = sorted({state[2] for state in pending.values()})
        stranded = list(pending.items())
        pending.clear()
        for slot in silent:
            self._respawn(slot)
        for __, (shard_no, keys, slot, attempt) in stranded:
            self._send_task(pending, shard_no, keys, attempt + 1, exclude=(slot,))
        return time.monotonic() + self.spec.timeout_s
