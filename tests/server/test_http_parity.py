"""HTTP responses must be bit-identical to in-process twin calls.

Plus the protocol edges: malformed bodies → 400, unknown routes →
404, wrong methods → 405, a hostile ``Content-Length`` → 400 / 413
before any body is read, and the observability endpoints
(``/v1/health``, ``/v1/stats``, ``/metrics``) carrying the shapes the
CLI and CI contract on.
"""

from __future__ import annotations

import http.client
import json
import logging
import socket

import numpy as np
import pytest

from repro.obs.export import PROMETHEUS_CONTENT_TYPE
from repro.server import HttpIndexClient, HttpStatusError
from repro.server import app as server_app
from repro.server.app import (
    BadRequestError,
    parse_insert_request,
    parse_lookup_request,
    parse_range_request,
)


class TestLookupParity:
    @pytest.mark.parametrize("size", [1, 64, 512])
    def test_bit_identical_including_misses(self, twin_pair, rng, size):
        client, twin, keys = twin_pair
        q = np.concatenate(
            [rng.choice(keys, size), rng.integers(0, 10**9, max(1, size // 4))]
        )
        resp = client.lookup(q.tolist())
        ref = twin.lookup_many(q)
        assert resp["n"] == q.size
        assert resp["found"] == ref.found.tolist()
        assert resp["values"] == ref.values.tolist()
        assert resp["levels"] == ref.levels.tolist()
        assert resp["search_steps"] == ref.search_steps.tolist()

    def test_repeat_batches_are_idempotent(self, twin_pair, rng):
        # With no writes in between a read leaves nothing behind: the
        # same batch gets the same answer and cost telemetry each time.
        client, twin, keys = twin_pair
        q = rng.choice(keys, 256)
        ref = twin.lookup_many(q)
        for _ in range(3):
            resp = client.lookup(q.tolist())
            assert resp["found"] == ref.found.tolist()
            assert resp["values"] == ref.values.tolist()
            assert resp["levels"] == ref.levels.tolist()
            assert resp["search_steps"] == ref.search_steps.tolist()


class TestWriteAndRangeParity:
    def test_insert_visible_and_bit_identical(self, twin_pair, rng):
        client, twin, keys = twin_pair
        fresh = np.unique(int(keys[-1]) + 1 + rng.integers(0, 2**32, 200))
        assert client.insert(fresh.tolist()) == {"accepted": int(fresh.size)}
        twin.insert_many(fresh)
        q = np.concatenate([fresh, rng.choice(keys, 100)])
        resp = client.lookup(q.tolist())
        ref = twin.lookup_many(q)
        assert resp["found"] == ref.found.tolist()
        assert resp["values"] == ref.values.tolist()
        assert all(resp["found"][: fresh.size])

    def test_insert_with_explicit_values(self, twin_pair, rng):
        client, twin, keys = twin_pair
        fresh = np.unique(int(keys[-1]) + 1 + rng.integers(0, 2**32, 64))
        vals = fresh * 3
        client.insert(fresh.tolist(), vals.tolist())
        twin.insert_many(fresh, vals)
        resp = client.lookup(fresh.tolist())
        ref = twin.lookup_many(fresh)
        assert resp["values"] == ref.values.tolist() == vals.tolist()

    def test_range_parity(self, twin_pair):
        client, twin, keys = twin_pair
        low, high = int(keys[50]), int(keys[400])
        resp = client.range(low, high)
        expected = [[int(k), int(v)] for k, v in twin.range_query(low, high)]
        assert resp["pairs"] == expected
        assert resp["n"] == len(expected)
        self._assert_range_bytes(client, twin, low, high)

    def test_range_parity_with_buffered_writes(self, twin_pair, rng):
        client, twin, keys = twin_pair
        low, high = int(keys[50]), int(keys[400])
        # Fresh keys and overwrites, still in the memtables.
        writes = np.concatenate([np.setdiff1d(rng.integers(low, high, 40), keys), keys[60:400:25]])
        client.insert(writes.tolist(), (-writes).tolist())
        twin.insert_many(writes, -writes)
        assert sum(twin.buffered_counts()) == writes.size
        self._assert_range_bytes(client, twin, low, high)

    @staticmethod
    def _assert_range_bytes(client, twin, low: int, high: int) -> None:
        """Byte for byte the body the pair list built: ``n`` and
        ``[[key, value], …]`` from the twin's ``range_query``, encoded
        as the server encodes every reply."""
        status, __, payload = client.request("POST", "/v1/range", {"low": low, "high": high})
        expected = [[int(k), int(v)] for k, v in twin.range_query(low, high)]
        assert status == 200
        body = {"n": len(expected), "pairs": expected}
        assert payload == json.dumps(body, sort_keys=True).encode("utf-8")

    def test_range_over_the_cap_is_refused(self, twin_pair, rng, monkeypatch):
        client, __, keys = twin_pair
        monkeypatch.setattr(server_app, "MAX_RANGE_PAIRS", 10)
        assert client.range(int(keys[0]), int(keys[9]))["n"] == 10
        with pytest.raises(HttpStatusError) as err:
            client.range(int(keys[0]), int(keys[10]))
        assert err.value.status == 400
        assert "narrow the bounds" in err.value.body["error"]
        TestProtocolErrors._fresh_connection_answers(twin_pair, rng)


class TestObservabilityEndpoints:
    def test_health_carries_service_and_admission_state(self, twin_pair):
        client, _twin, _keys = twin_pair
        report = client.health()
        assert report["admission"]["max_inflight"] >= 1
        assert report["admission"]["closing"] is False
        # Shard work runs inline: no replica / worker-restart fields.
        assert set(report) == {
            "shards", "total", "merges", "buffer_hit_rate", "cost_imbalance",
            "status", "admission",
        }
        # What the shard observed; no predicted cost, no drift.
        assert set(report["total"]) == set(report["shards"][0]) == {
            "shard", "n_keys", "buffered", "staleness", "queries", "avg_levels",
            "avg_ns", "p50_ns", "p90_ns", "p99_ns", "status",
        }

    def test_stats_counts_requests(self, twin_pair, rng):
        client, _twin, keys = twin_pair
        client.lookup(rng.choice(keys, 32).tolist())
        stats = client.stats()
        assert stats["http"]["http_requests_total.lookup"] >= 1
        assert stats["http"]["http_keys_looked_up_total"] >= 32
        assert stats["service"]["n_lookups"] >= 32
        assert stats["n_shards"] >= 1
        assert stats["store"] is None

    def test_stats_and_health_carry_no_cache_fields(self, twin_pair, rng):
        client, _twin, keys = twin_pair
        client.lookup(rng.choice(keys, 16).tolist())
        stats = client.stats()
        names = [*client.health(), *stats["service"], *stats["http"]]
        assert not [name for name in names if "cache" in name]

    def test_metrics_prometheus_exposition(self, twin_pair, rng):
        client, _twin, keys = twin_pair
        client.lookup(rng.choice(keys, 16).tolist())
        status, headers, payload = client.request("GET", "/metrics")
        assert status == 200
        assert headers["content-type"] == PROMETHEUS_CONTENT_TYPE
        text = payload.decode("utf-8")
        assert "# TYPE http_admitted_total counter" in text
        assert "http_requests_total" in text
        assert "http_batch_seconds_bucket" in text


class TestProtocolErrors:
    def test_unknown_route_404(self, twin_pair):
        client, _twin, _keys = twin_pair
        status, _headers, payload = client.request("GET", "/v1/nope")
        assert status == 404
        assert "error" in json.loads(payload)

    def test_wrong_method_405(self, twin_pair):
        client, _twin, _keys = twin_pair
        status, _h, _p = client.request("GET", "/v1/lookup")
        assert status == 405
        status, _h, _p = client.request("POST", "/v1/health", {"x": 1})
        assert status == 405

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"keys": []},
            {"keys": "abc"},
            {"keys": [1, "two"]},
            {"keys": [1, True]},
            {"keys": [2**63]},
        ],
    )
    def test_bad_lookup_bodies_400(self, twin_pair, body):
        client, _twin, _keys = twin_pair
        with pytest.raises(HttpStatusError) as exc:
            client._json("POST", "/v1/lookup", body)
        assert exc.value.status == 400

    @pytest.mark.parametrize("path", ["/v1/lookup", "/v1/insert"])
    @pytest.mark.parametrize(
        "bad, error",
        [
            (True, "'keys' must contain only integers"),
            (2.0, "'keys' must contain only integers"),
            ("7", "'keys' must contain only integers"),
            (None, "'keys' must contain only integers"),
            ([7], "'keys' must contain only integers"),
            ({"k": 7}, "'keys' must contain only integers"),
            (2**63, "keys outside the int64 key domain"),
            (-(2**63) - 1, "keys outside the int64 key domain"),
        ],
    )
    def test_bad_key_elements_400(self, twin_pair, path, bad, error):
        client, _twin, _keys = twin_pair
        with pytest.raises(HttpStatusError) as exc:
            client._json("POST", path, {"keys": [1, bad, 3]})
        assert (exc.value.status, exc.value.body) == (400, {"error": error})

    @pytest.mark.parametrize(
        "bad, error",
        [
            (False, "'values' must contain only integers"),
            (0.5, "'values' must contain only integers"),
            (2**64, "values outside the int64 key domain"),
        ],
    )
    def test_bad_value_elements_400(self, twin_pair, bad, error):
        client, _twin, _keys = twin_pair
        with pytest.raises(HttpStatusError) as exc:
            client._json("POST", "/v1/insert", {"keys": [1, 2], "values": [5, bad]})
        assert (exc.value.status, exc.value.body) == (400, {"error": error})

    def test_bad_range_bodies_400(self, twin_pair):
        client, _twin, _keys = twin_pair
        for body in ({"low": 5, "high": 1}, {"low": "a", "high": 2}, {"low": 1}):
            with pytest.raises(HttpStatusError) as exc:
                client._json("POST", "/v1/range", body)
            assert exc.value.status == 400

    def test_values_length_mismatch_400(self, twin_pair):
        client, _twin, _keys = twin_pair
        with pytest.raises(HttpStatusError) as exc:
            client._json("POST", "/v1/insert", {"keys": [1, 2], "values": [9]})
        assert exc.value.status == 400

    def test_malformed_json_400(self, twin_pair):
        client, _twin, _keys = twin_pair
        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request(
                "POST",
                "/v1/lookup",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "body",
        [
            b"[" * 100_000,
            b"1" * 5_000,
            b'{"keys": [1, ' + b"1" * 5_000 + b"]}",
        ],
        ids=["deep-array", "huge-int", "huge-int-in-keys"],
    )
    def test_hostile_json_400(self, twin_pair, rng, body):
        """``json.loads`` raises ``RecursionError`` on the first body
        and a plain ``ValueError`` on the digit-limit ones: a client
        fault (400), not a 500 that reads as a server fault."""
        client, _twin, _keys = twin_pair
        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request(
                "POST",
                "/v1/lookup",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert "error" in json.loads(response.read())
        finally:
            conn.close()
        self._fresh_connection_answers(twin_pair, rng)

    @pytest.mark.parametrize(
        "declared, want",
        [("99999999999", 413), ("abc", 400), ("-1", 400)],
        ids=["over-cap", "not-a-number", "negative"],
    )
    def test_hostile_content_length_answered_then_dropped(
        self, twin_pair, rng, caplog, declared, want
    ):
        """The declared length is judged before a body byte is read:
        the reply comes at once, with no body sent, and the connection
        is closed (the stream cannot be resynchronised)."""
        request = (
            f"POST /v1/lookup HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {declared}\r\n\r\n"
        ).encode("latin-1")
        self._answered_then_dropped(twin_pair, rng, caplog, request, want)

    @pytest.mark.parametrize(
        "request_bytes, want",
        [
            (b"GET /v1/health HTTP/1.1\r\nX-Pad: " + b"a" * 200_000 + b"\r\n\r\n", 431),
            (b"GET /v1/health HTTP/1.1\r\n" + b"X-Pad: a\r\n" * 101 + b"\r\n", 431),
            (b"GARBAGE\r\n\r\n", 400),
        ],
        ids=["over-long-line", "too-many-headers", "garbage-request-line"],
    )
    def test_hostile_framing_answered_then_dropped(
        self, twin_pair, rng, caplog, request_bytes, want
    ):
        """A request head that cannot be framed gets a 4xx, not a
        silent close or an unhandled exception in the connection task."""
        self._answered_then_dropped(twin_pair, rng, caplog, request_bytes, want)

    @staticmethod
    def _fresh_connection_answers(twin_pair, rng):
        client, twin, keys = twin_pair
        q = rng.choice(keys, 16)
        with HttpIndexClient(client.host, client.port) as fresh:
            got = fresh.lookup(q.tolist())
        reference = twin.lookup_many(q)
        assert got["found"] == reference.found.tolist()
        assert got["values"] == reference.values.tolist()

    def _answered_then_dropped(self, twin_pair, rng, caplog, request, want):
        client, _twin, _keys = twin_pair
        errors = client.stats()["http"]["http_errors_total"]
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection(
                (client.host, client.port), timeout=1.0
            ) as sock:
                sock.sendall(request)
                reply = b""
                while chunk := sock.recv(65536):  # until the server closes
                    reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {want} ".encode()), reply
        assert b"connection: close" in head.lower()
        assert "error" in json.loads(body)
        # No "Unhandled exception in client_connected_cb".
        assert not caplog.records
        assert client.stats()["http"]["http_errors_total"] == errors + 1
        self._fresh_connection_answers(twin_pair, rng)

    def test_server_survives_error_barrage(self, twin_pair, rng):
        client, twin, keys = twin_pair
        for _ in range(3):
            client.request("GET", "/v1/nope")
            client.request("POST", "/v1/lookup", {"keys": []})
        q = rng.choice(keys, 16)
        assert client.lookup(q.tolist())["found"] == twin.lookup_many(q).found.tolist()


class TestRequestParsers:
    def test_lookup_rejects_non_object(self):
        with pytest.raises(BadRequestError):
            parse_lookup_request([1, 2, 3])

    def test_insert_defaults_values_to_none(self):
        keys, values = parse_insert_request({"keys": [3, 1]})
        assert keys.dtype == np.int64 and values is None

    def test_range_bounds_validated(self):
        assert parse_range_request({"low": -5, "high": 5}) == (-5, 5)
        with pytest.raises(BadRequestError):
            parse_range_request({"low": 0, "high": True})
