"""HTTP network front door over the sharded serving stack.

Everything below this package used to end at an in-process
:class:`~repro.serving.service.IndexService` call; this is the wire
boundary that lets anything outside one Python process reach it.
Dependency-free (stdlib ``asyncio`` + ``sqlite3`` + ``http.client``),
like the rest of the repo:

* :mod:`~repro.server.app` — the HTTP/1.1 keep-alive server and its
  JSON endpoints (``/v1/lookup``, ``/v1/insert``, ``/v1/range``,
  ``/v1/health``, ``/v1/stats``, ``/metrics``), run in the foreground
  by ``repro serve``.
* :mod:`~repro.server.admission` — bounded request queue: overload
  answers ``429 + Retry-After`` instead of building invisible
  backlog, and shutdown drains every accepted batch.
* :mod:`~repro.server.runtime_store` — the SQLite-WAL op log of
  accepted writes, replayed on reopen (counters are per process).
* :mod:`~repro.server.loadgen` — the synchronous keep-alive JSON
  client tests and ``benchmarks/ladder`` talk to the server with.
* :mod:`~repro.server.harness` — background-thread server for tests
  and the ladder's traced runs.

The names re-exported here are the stable public surface of the
wire layer.
"""

from .admission import AdmissionController, ClosingError, OverloadedError
from .app import BadRequestError, HttpFrontDoor, run_http_server
from .harness import ServerThread
from .loadgen import HttpIndexClient, HttpStatusError
from .runtime_store import OpRecord, RuntimeStore

__all__ = [
    "AdmissionController",
    "BadRequestError",
    "ClosingError",
    "HttpFrontDoor",
    "HttpIndexClient",
    "HttpStatusError",
    "OpRecord",
    "OverloadedError",
    "RuntimeStore",
    "ServerThread",
    "run_http_server",
]
