"""In-process server harness: run the front door on a background thread.

Tests and the ladder's traced runs need a live HTTP endpoint
without forking a subprocess (same interpreter → same service object,
so parity can be asserted against in-process calls directly).
:class:`ServerThread` owns a private event loop on a daemon thread,
publishes the bound port once the listener is up, and on
:meth:`stop` runs the front door's full graceful shutdown — drain,
persist, close — before joining.
"""

from __future__ import annotations

import asyncio
import threading

from .app import HttpFrontDoor

__all__ = ["ServerThread"]


class ServerThread:
    """One :class:`HttpFrontDoor` served from a background thread.

    Usage::

        with ServerThread(service, max_inflight=2) as srv:
            client = HttpIndexClient(srv.host, srv.port)
            ...

    Construction kwargs are forwarded to :class:`HttpFrontDoor`;
    ``port=0`` (the default) lets the OS pick a free port.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0, **front_kwargs):
        self._requested_host = host
        self._requested_port = port
        self.front = HttpFrontDoor(service, **front_kwargs)
        self.host: str | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="http-server", daemon=True
        )

    # ------------------------------------------------------------------
    def start(self, timeout: float = 15.0) -> "ServerThread":
        """Launch the thread; blocks until the port is bound."""
        self._thread.start()
        if not self._started.wait(timeout):
            raise TimeoutError("HTTP server failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surface startup failures to start()
            self._startup_error = exc
            self._started.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            self.host, self.port = await self.front.start(
                self._requested_host, self._requested_port
            )
        finally:
            self._started.set()
        # Signals belong to the owning process, not a library thread.
        await self.front.run_until_shutdown(install_signals=False)

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: drain in-flight batches, persist, join."""
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.front.request_shutdown)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("HTTP server thread did not stop in time")

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
