"""The HTTP front door: asyncio wire protocol over ``IndexService``.

Dependency-free by design (the same rule ``obs/`` follows): the
container this grows in has no FastAPI/uvicorn, so the server is a
hand-rolled HTTP/1.1 keep-alive loop on ``asyncio`` streams.  The
surface is small and JSON-only:

========  =============  ==================================================
method    path           body → response
========  =============  ==================================================
POST      /v1/lookup     ``{"keys": [..]}`` → parallel ``found`` /
                         ``values`` / ``levels`` / ``search_steps`` arrays
POST      /v1/insert     ``{"keys": [..], "values": [..]?}`` →
                         ``{"accepted": n}``
POST      /v1/range      ``{"low": L, "high": H}`` → ``{"pairs": [[k,v]..]}``
GET       /v1/health     ``IndexService.health_report()`` as JSON
GET       /v1/stats      service + admission + store counters
GET       /metrics       Prometheus text exposition of the registry
========  =============  ==================================================

Batch endpoints go through the :class:`~repro.server.admission.
AdmissionController`: a full queue answers ``429`` with a
``Retry-After`` hint *before* any work is spent, and shutdown drains
every admitted batch before the loop exits (``503`` for late
arrivals).  Responses carry exact integers end to end — Python JSON
ints are arbitrary-precision, so the wire answers are bit-identical
to in-process ``lookup_many`` (the parity suite holds this).

With a :class:`~repro.server.runtime_store.RuntimeStore` attached,
accepted write batches are logged durably before they are applied
and replayed on restart.  When the service also has a durable store,
an insert that commits a generation flushes the other shards and
prunes the log it covers, so a restart replays only the writes since
(shutdown does the same once more).  Counters are per process: a
restarted server counts only what it served.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import signal
import threading
import time
from typing import Any, Awaitable, Callable

import numpy as np

from ..obs.export import PROMETHEUS_CONTENT_TYPE, to_prometheus
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, get_registry
from .admission import AdmissionController, ClosingError, OverloadedError
from .runtime_store import RuntimeStore

__all__ = ["BadRequestError", "HttpFrontDoor", "run_http_server"]

_log = get_logger("server")

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Hard cap on request bodies (bytes) — a 64 MiB body is ~8M int64
#: keys, far past any sane batch.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Hard cap on header lines per request.  (A single line is capped by
#: asyncio's 64 KiB stream-reader limit.)
MAX_HEADER_LINES = 100

#: After a framing error the server stops sending, then discards the
#: client's unread bytes for at most this long before closing: closing
#: a socket with unread input resets the connection, which can destroy
#: the reply before the client has read it.
LINGER_S = 0.5

#: Hard cap on keys per batch request.
MAX_BATCH_KEYS = 1_000_000

#: Hard cap on pairs one /v1/range response will return.
MAX_RANGE_PAIRS = 1_000_000

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class BadRequestError(Exception):
    """Client-side request error (HTTP 400)."""


class _FramingError(Exception):
    """A request that cannot be framed, or whose body must not be
    read: answer *status*, close."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line of the request head; 431 if it overruns the reader's limit."""
    try:
        return await reader.readline()
    except ValueError:  # how StreamReader.readline reports LimitOverrunError
        raise _FramingError(431, "request or header line too long") from None


async def _discard_unread(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Half-close, then drop input until the client closes or
    :data:`LINGER_S` passes."""
    if writer.can_write_eof():
        writer.write_eof()

    async def until_eof() -> None:
        while await reader.read(65536):
            pass

    try:
        await asyncio.wait_for(until_eof(), LINGER_S)
    except asyncio.TimeoutError:
        pass


class _ReadWriteLock:
    """Many concurrent readers XOR one writer.

    ``IndexService`` is single-driver by contract: a synchronous
    staleness merge rebuilds shard structure in place, and a lookup
    racing it trips ``StaleFlatError`` (or worse).  The front door is
    the first caller with real concurrency (batches on the event loop
    and on ``max_inflight`` worker threads, monitoring polls on a side
    thread), so it imposes the discipline here: lookup/range batches
    share the service, an insert batch takes it exclusively.

    A waiting writer goes before every reader that arrives after it,
    so reads cannot starve an insert.  Both sides come in two kinds.
    The event loop calls :meth:`try_read` or :meth:`try_write`, which
    never wait: they refuse while anyone holds the lock in a way that
    excludes them, or a writer waits for it, and the refused batch
    goes to the pool.  Threads call :meth:`read` or :meth:`write`,
    which wait.  Nobody nests or upgrades, so the preference cannot
    deadlock; with ``max_inflight`` small, a writer waits for at most
    a couple of in-flight read batches.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False
        self._writers_waiting = 0

    def try_read(self) -> bool:
        """Take a read share unless a writer holds or waits for the
        lock; never waits.  A True answer must be paired with
        :meth:`release_read`."""
        with self._cond:
            if self._writing or self._writers_waiting:
                return False
            self._readers += 1
            return True

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def try_write(self) -> bool:
        """Take the whole lock unless anyone holds or waits for it;
        never waits.  A True answer must be paired with
        :meth:`release_write`."""
        with self._cond:
            if self._writing or self._readers or self._writers_waiting:
                return False
            self._writing = True
            return True

    def release_write(self) -> None:
        with self._cond:
            self._writing = False
            self._cond.notify_all()

    @contextlib.contextmanager
    def read(self):
        with self._cond:
            while self._writing or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            self.release_read()

    @contextlib.contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            self.release_write()


def _require_int_list(obj: dict, key: str, max_len: int) -> list[int]:
    value = obj.get(key)
    if not isinstance(value, list) or not value:
        raise BadRequestError(f"'{key}' must be a non-empty array of integers")
    if len(value) > max_len:
        raise BadRequestError(f"'{key}' exceeds the {max_len}-key batch cap")
    # One pass in C over exact types: JSON yields int, bool (an int
    # subclass), float, str, None, list and dict, and nothing else.
    if set(map(type, value)) != {int}:
        raise BadRequestError(f"'{key}' must contain only integers")
    return value


def _as_int64(values: list[int], what: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.int64)
    except (OverflowError, ValueError) as exc:
        raise BadRequestError(f"{what} outside the int64 key domain") from exc


def parse_lookup_request(obj: Any) -> np.ndarray:
    """``{"keys": [..]}`` → int64 query array (or BadRequestError)."""
    if not isinstance(obj, dict):
        raise BadRequestError("body must be a JSON object")
    return _as_int64(_require_int_list(obj, "keys", MAX_BATCH_KEYS), "keys")


def parse_insert_request(obj: Any) -> tuple[np.ndarray, np.ndarray | None]:
    """``{"keys": [..], "values": [..]?}`` → (keys, values-or-None)."""
    if not isinstance(obj, dict):
        raise BadRequestError("body must be a JSON object")
    keys = _as_int64(_require_int_list(obj, "keys", MAX_BATCH_KEYS), "keys")
    values = None
    if obj.get("values") is not None:
        values = _as_int64(
            _require_int_list(obj, "values", MAX_BATCH_KEYS), "values"
        )
        if values.size != keys.size:
            raise BadRequestError("'values' must parallel 'keys'")
    return keys, values


def parse_range_request(obj: Any) -> tuple[int, int]:
    """``{"low": L, "high": H}`` → validated inclusive bounds."""
    if not isinstance(obj, dict):
        raise BadRequestError("body must be a JSON object")
    bounds = []
    for key in ("low", "high"):
        value = obj.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise BadRequestError(f"'{key}' must be an integer")
        bounds.append(value)
    low, high = bounds
    info = np.iinfo(np.int64)
    if not (info.min <= low <= info.max and info.min <= high <= info.max):
        raise BadRequestError("range bounds outside the int64 key domain")
    if low > high:
        raise BadRequestError("'low' must not exceed 'high'")
    return low, high


class HttpFrontDoor:
    """One HTTP server bound to one :class:`IndexService`."""

    def __init__(
        self,
        service,
        *,
        registry: MetricsRegistry | None = None,
        store: RuntimeStore | None = None,
        max_pending: int = 64,
        max_inflight: int = 2,
        drain_timeout_s: float = 30.0,
    ):
        self.service = service
        self.registry = registry if registry is not None else get_registry()
        self.store = store
        self.max_pending = int(max_pending)
        self.max_inflight = int(max_inflight)
        self.drain_timeout_s = float(drain_timeout_s)
        self.host: str | None = None
        self.port: int | None = None
        self.admission: AdmissionController | None = None
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._shutdown_requested = asyncio.Event()
        self._shutdown_done = False
        self._rwlock = _ReadWriteLock()
        reg = self.registry
        self._c_requests = {
            route: reg.counter("http_requests_total", route=route)
            for route in ("lookup", "insert", "range", "health", "stats", "metrics")
        }
        self._c_errors = reg.counter("http_errors_total")
        self._c_keys_looked_up = reg.counter("http_keys_looked_up_total")
        self._c_keys_inserted = reg.counter("http_keys_inserted_total")
        self._c_replayed_ops = reg.counter("http_replayed_ops_total")
        self._c_oplog_pruned = reg.counter("http_oplog_pruned_total")
        self._h_request_s = reg.histogram("http_request_seconds")
        self._routes: dict[tuple[str, str], Callable[[Any], Awaitable]] = {
            ("POST", "/v1/lookup"): self._h_lookup,
            ("POST", "/v1/insert"): self._h_insert,
            ("POST", "/v1/range"): self._h_range,
            ("GET", "/v1/health"): self._h_health,
            ("GET", "/v1/stats"): self._h_stats,
            ("GET", "/metrics"): self._h_metrics,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 8000) -> tuple[str, int]:
        """Replay the op log, bind, and start serving.

        Returns the bound ``(host, port)`` — with ``port=0`` the OS
        picks a free port, which the tests and the port-0 CLI use.
        """
        self.admission = AdmissionController(
            max_pending=self.max_pending,
            max_inflight=self.max_inflight,
            registry=self.registry,
        )
        self._restore_from_store()
        self._server = await asyncio.start_server(
            self._handle_conn, host=host, port=port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    def _restore_from_store(self) -> None:
        """Re-apply, in arrival order, every op the log still holds."""
        if self.store is None:
            return
        ops = self.store.iter_ops()
        for record in ops:
            self.service.insert_many(record.keys, record.values)
            self._c_replayed_ops.inc()
        if ops:
            _log.info(f"runtime store: replayed {len(ops)} op(s)")

    def request_shutdown(self) -> None:
        """Begin graceful shutdown (signal-handler and test entry)."""
        self._shutdown_requested.set()

    async def run_until_shutdown(self, install_signals: bool = True) -> None:
        """Serve until shutdown is requested, then drain and stop."""
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except NotImplementedError:  # non-Unix event loop
                    signal.signal(signum, lambda *_: self.request_shutdown())
        await self._shutdown_requested.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Graceful stop: refuse, drain, persist — in that order."""
        if self._shutdown_done:
            return
        self._shutdown_done = True
        assert self.admission is not None
        # 1. No new work: late requests get 503, new connections are
        #    refused at accept.
        self.admission.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # 2. Every *accepted* batch completes (bounded, on the daemon
        #    pool, so a wedged batch cannot hang the exit forever).
        drained = await self.admission.drain(timeout=self.drain_timeout_s)
        if not drained:
            _log.info("shutdown: drain timed out with batches in flight")
        # 3. Idle keep-alive connections are dropped only now.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self.admission.shutdown_pool()
        # 4. Persist: buffered writes freeze into runs and the covered
        #    op-log rows disappear, so a clean restart replays (close
        #    to) nothing.
        with self._rwlock.write():
            self._durable_sync()
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------
    # Durability sync (op-log pruning)
    # ------------------------------------------------------------------
    def _durable_sync(self) -> int:
        """Flush buffered writes durably, then prune the SQLite op log.

        The caller holds the writer lock: an insert that just committed
        a generation (``_h_insert``) or shutdown.  Under that lock
        every logged op is also applied, so after ``flush_durable()``
        commits every shard's unflushed writes, every op with
        ``seq <= last_seq()`` is captured in the run store and its log
        row is pure replay debt — deleted here.  Needs both
        persistence layers: the service's
        :class:`~repro.store.DurableStore` (runs + manifest) and the
        HTTP :class:`RuntimeStore` (op log).  Returns rows pruned.
        """
        if self.store is None or getattr(self.service, "store", None) is None:
            return 0
        durable_seq = self.store.last_seq()
        self.service.flush_durable()
        pruned = self.store.prune_op_log_upto(durable_seq)
        if pruned:
            self._c_oplog_pruned.inc(pruned)
            _log.info(
                f"durable sync: generation {self.service.durable_generation()}, "
                f"pruned {pruned} op-log row(s) up to seq {durable_seq}"
            )
        return pruned

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _FramingError as exc:
                    # Nothing of the body was read, so the stream cannot
                    # be resynchronised: answer, then drop the connection.
                    self._c_errors.inc()
                    await self._write_response(
                        writer, exc.status, _error_body(str(exc)),
                        JSON_CONTENT_TYPE, [], keep_alive=False,
                    )
                    await _discard_unread(reader, writer)
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
            asyncio.CancelledError,
        ):
            pass  # client went away (or shutdown cancelled an idle reader)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        line = await _read_line(reader)
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _FramingError(400, "malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES + 1):
            raw = await _read_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _FramingError(431, f"more than {MAX_HEADER_LINES} header lines")
        # The declared length is checked before any body byte is read:
        # the cap bounds what a client can make the server buffer.
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            raise _FramingError(400, "invalid Content-Length")
        if length > MAX_BODY_BYTES:
            raise _FramingError(413, "request body too large")
        body = await reader.readexactly(length) if length > 0 else b""
        return method.upper(), target.split("?", 1)[0], headers, body

    async def _dispatch(
        self,
        request: tuple[str, str, dict[str, str], bytes],
        writer: asyncio.StreamWriter,
    ) -> bool:
        method, path, headers, body = request
        start = time.perf_counter()
        status = 500
        payload: bytes = b""
        content_type = JSON_CONTENT_TYPE
        extra: list[tuple[str, str]] = []
        keep_alive = headers.get("connection", "").lower() != "close"
        try:
            handler = self._routes.get((method, path))
            if handler is None:
                known_paths = {p for (_m, p) in self._routes}
                status = 405 if path in known_paths else 404
                payload = _error_body(
                    "method not allowed" if status == 405 else "no such route"
                )
            else:
                obj = None
                if method == "POST":
                    try:
                        obj = json.loads(body.decode("utf-8")) if body else {}
                    # ValueError covers bad UTF-8, JSONDecodeError and the
                    # int digit limit; RecursionError is hostile nesting.
                    except (ValueError, RecursionError) as exc:
                        raise BadRequestError(f"invalid JSON body: {exc}") from exc
                status, result, content_type = await handler(obj)
                payload = (
                    result
                    if isinstance(result, bytes)
                    else json.dumps(result, sort_keys=True).encode("utf-8")
                )
        except BadRequestError as exc:
            status, payload = 400, _error_body(str(exc))
        except OverloadedError as exc:
            status = 429
            extra.append(("Retry-After", f"{int(exc.retry_after_s)}"))
            payload = _error_body(
                "overloaded", queued=exc.queued, running=exc.running,
                retry_after_s=exc.retry_after_s,
            )
        except ClosingError:
            status, keep_alive = 503, False
            extra.append(("Connection", "close"))
            payload = _error_body("server is draining")
        except Exception as exc:  # the server must not die with a request
            _log.info(f"500 on {method} {path}: {exc!r}")
            status, payload = 500, _error_body("internal error")
        if status >= 400:
            self._c_errors.inc()
        self._h_request_s.observe(time.perf_counter() - start)
        await self._write_response(
            writer, status, payload, content_type, extra, keep_alive
        )
        return keep_alive

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        extra: list[tuple[str, str]],
        keep_alive: bool,
    ) -> None:
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        names = {name.lower() for name, _ in extra}
        if "connection" not in names:
            headers.append(
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
            )
        headers.extend(f"{name}: {value}" for name, value in extra)
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _h_lookup(self, obj: Any):
        keys = parse_lookup_request(obj)
        assert self.admission is not None

        def work() -> dict:
            batch = self.service.lookup_many(keys)
            return {
                "n": int(batch.keys.size),
                "found": batch.found.tolist(),
                "values": batch.values.tolist(),
                "levels": batch.levels.tolist(),
                "search_steps": batch.search_steps.tolist(),
            }

        result = await self.admission.run(work, self._rwlock, n_keys=int(keys.size))
        self._c_requests["lookup"].inc()
        self._c_keys_looked_up.inc(int(keys.size))
        return 200, result, JSON_CONTENT_TYPE

    async def _h_insert(self, obj: Any):
        keys, values = parse_insert_request(obj)
        assert self.admission is not None

        def work() -> dict:
            # Under the whole lock (a merge may rebuild shards in place),
            # log-then-apply: at any instant every logged op is also
            # applied, which is what lets _durable_sync() prune the log
            # up to last_seq() after a flush.  A crash between the two
            # replays the op.
            if self.store is not None:
                self.store.record_op(keys, values)
            generation = self.service.durable_generation()
            self.service.insert_many(keys, values)
            # A threshold flush or flush-on-merge committed a
            # generation: make it cover every logged op.
            if self.service.durable_generation() != generation:
                self._durable_sync()
            return {"accepted": int(keys.size)}

        # The loop takes only a write that buffers: no merge, flush or sync.
        result = await self.admission.run(
            work, self._rwlock, int(keys.size), write=True, fits=lambda: self.service.stays_buffered(keys)
        )
        self._c_requests["insert"].inc()
        self._c_keys_inserted.inc(int(keys.size))
        return 200, result, JSON_CONTENT_TYPE

    async def _h_range(self, obj: Any):
        low, high = parse_range_request(obj)
        assert self.admission is not None

        def work() -> dict:
            with self._rwlock.read():
                keys, values = self.service.range_arrays(low, high)
            # Refused before a pair is built: a wide range costs arrays.
            if keys.size > MAX_RANGE_PAIRS:
                raise BadRequestError(
                    f"range matches {keys.size} pairs "
                    f"(cap {MAX_RANGE_PAIRS}); narrow the bounds"
                )
            return {
                "n": int(keys.size),
                "pairs": np.column_stack((keys, values)).tolist(),
            }

        result = await self.admission.run(work)
        self._c_requests["range"].inc()
        return 200, result, JSON_CONTENT_TYPE

    async def _monitor(self, read: Callable[[], Any]) -> Any:
        """Run a monitoring read of the service under the reader lock.

        ``IndexService.n_keys`` sweeps the buffered keys through the
        shards and ALEX's ``n_keys`` walks its node tree
        (so does the ``shard_staleness`` gauge the registry pulls),
        so a poll racing the in-place merge of an insert batch is the
        stale-flat-view race that drops acknowledged keys.  The read
        therefore takes the lock like any other reader — on a thread
        of the loop's default executor, so the event loop never waits
        for a writer, and not through admission, so monitoring still
        answers under overload.  Unlike a small lookup batch it does
        not try the lock on the loop first: its cost grows with the
        service (every shard's ``n_keys``, every registry series), not
        with a request's size, so it never holds the loop.
        """

        def work() -> Any:
            with self._rwlock.read():
                return read()

        return await asyncio.to_thread(work)

    async def _h_health(self, _obj: Any):
        self._c_requests["health"].inc()
        report = await self._monitor(
            lambda: dataclasses.asdict(self.service.health_report())
        )
        assert self.admission is not None
        report["admission"] = {
            "queued": self.admission.queued,
            "running": self.admission.running,
            "max_pending": self.max_pending,
            "max_inflight": self.max_inflight,
            "closing": self.admission.closing,
        }
        return 200, report, JSON_CONTENT_TYPE

    async def _h_stats(self, _obj: Any):
        self._c_requests["stats"].inc()
        n_keys = await self._monitor(lambda: int(self.service.n_keys))
        out = {
            "service": dataclasses.asdict(self.service.stats),
            "http": {
                **{f"http_requests_total.{r}": c.value for r, c in self._c_requests.items()},
                "http_keys_looked_up_total": self._c_keys_looked_up.value,
                "http_keys_inserted_total": self._c_keys_inserted.value,
                "http_errors_total": self._c_errors.value,
            },
            "n_keys": n_keys,
            "n_shards": int(self.service.n_shards),
            "store": None
            if self.store is None
            else {
                "path": str(self.store.path),
                "journal_mode": self.store.journal_mode(),
                "op_log_entries": self.store.op_count(),
            },
            "durability": None
            if getattr(self.service, "store", None) is None
            else {
                "data_dir": str(self.service.store.data_dir),
                "generation": int(self.service.durable_generation()),
                "runs_outstanding": int(self.service.store.runs_outstanding()),
            },
        }
        return 200, out, JSON_CONTENT_TYPE

    async def _h_metrics(self, _obj: Any):
        self._c_requests["metrics"].inc()
        text = await self._monitor(lambda: to_prometheus(self.registry))
        return 200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE


def _error_body(message: str, **details) -> bytes:
    return json.dumps({"error": message, **details}, sort_keys=True).encode("utf-8")


def run_http_server(
    service,
    host: str = "127.0.0.1",
    port: int = 8000,
    *,
    on_listening: Callable[[str, int], None] | None = None,
    **front_kwargs,
) -> int:
    """Run the front door in the foreground until SIGINT/SIGTERM.

    The blocking entry the ``repro serve`` CLI uses; returns 0
    after a graceful drain.  *front_kwargs* are
    :class:`HttpFrontDoor`'s.
    """
    front = HttpFrontDoor(service, **front_kwargs)

    async def _amain() -> None:
        bound_host, bound_port = await front.start(host, port)
        if on_listening is not None:
            on_listening(bound_host, bound_port)
        await front.run_until_shutdown(install_signals=True)

    asyncio.run(_amain())
    return 0
