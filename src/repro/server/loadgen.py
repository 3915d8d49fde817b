"""Synchronous HTTP client for the front door's endpoints.

:class:`HttpIndexClient` is a thin JSON client over one keep-alive
``http.client`` connection — the per-request cost is one ``send`` +
one ``recv``, so a caller timing requests measures the server, not
client-side connection churn.  A non-2xx reply raises
:class:`HttpStatusError`; a ``429`` carries the server's
``Retry-After`` as ``retry_after_s``.
"""

from __future__ import annotations

import http.client
import json

__all__ = ["HttpIndexClient", "HttpStatusError"]


class HttpStatusError(Exception):
    """Non-2xx response; carries ``status``, ``body``, ``headers``."""

    def __init__(self, status: int, body: dict | str, headers: dict[str, str]):
        self.status = int(status)
        self.body = body
        self.headers = headers
        super().__init__(f"HTTP {status}: {body}")

    @property
    def retry_after_s(self) -> float:
        try:
            return float(self.headers.get("retry-after", 0.0))
        except ValueError:
            return 0.0


class HttpIndexClient:
    """Blocking JSON client for the front door's endpoints."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def request(
        self, method: str, path: str, obj: dict | None = None
    ) -> tuple[int, dict[str, str], bytes]:
        """One request; reconnects once if the keep-alive conn dropped."""
        body = None if obj is None else json.dumps(obj).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                payload = response.read()
                return (
                    response.status,
                    {k.lower(): v for k, v in response.getheaders()},
                    payload,
                )
            except (ConnectionError, http.client.HTTPException, OSError):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def _json(self, method: str, path: str, obj: dict | None = None) -> dict:
        status, headers, payload = self.request(method, path, obj)
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = payload.decode("utf-8", "replace")
        if status != 200:
            raise HttpStatusError(status, decoded, headers)
        return decoded

    # ------------------------------------------------------------------
    def lookup(self, keys) -> dict:
        """``POST /v1/lookup`` one key batch."""
        return self._json("POST", "/v1/lookup", {"keys": [int(k) for k in keys]})

    def insert(self, keys, values=None) -> dict:
        """``POST /v1/insert`` one write batch (values default to keys)."""
        obj: dict = {"keys": [int(k) for k in keys]}
        if values is not None:
            obj["values"] = [int(v) for v in values]
        return self._json("POST", "/v1/insert", obj)

    def range(self, low: int, high: int) -> dict:
        """``POST /v1/range`` an inclusive key interval."""
        return self._json("POST", "/v1/range", {"low": int(low), "high": int(high)})

    def health(self) -> dict:
        """``GET /v1/health``."""
        return self._json("GET", "/v1/health")

    def stats(self) -> dict:
        """``GET /v1/stats``."""
        return self._json("GET", "/v1/stats")

    def close(self) -> None:
        """Drop the keep-alive connection (reopened on next request)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "HttpIndexClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
