"""Structured logging: plain passthrough and JSON lines."""

from __future__ import annotations

import io
import json
import logging

from repro.obs.log import configure_logging, get_logger


def test_plain_format_is_bare_message():
    stream = io.StringIO()
    logger = configure_logging("plain", stream=stream)
    logger.info("shard sizes: 100, 200")
    assert stream.getvalue() == "shard sizes: 100, 200\n"  # byte-exact


def test_plain_format_appends_fields():
    stream = io.StringIO()
    configure_logging("plain", stream=stream)
    get_logger("cli").info("merged", extra={"fields": {"shard": 3, "keys": 42}})
    assert stream.getvalue() == "merged shard=3 keys=42\n"


def test_json_format_emits_parseable_records():
    stream = io.StringIO()
    configure_logging("json", stream=stream)
    get_logger("cli").log(logging.WARNING, "merged", extra={"fields": {"shard": 3}})
    record = json.loads(stream.getvalue())
    assert record["msg"] == "merged"
    assert record["level"] == "warning"
    assert record["logger"] == "repro.cli"
    assert record["fields"] == {"shard": 3}
    assert record["ts"].endswith("+00:00")  # ISO-8601 UTC


def test_configure_logging_is_idempotent_and_rebinds_stream():
    first = io.StringIO()
    configure_logging("plain", stream=first)
    second = io.StringIO()
    logger = configure_logging("plain", stream=second)
    assert len(logger.handlers) == 1  # no handler pile-up
    logger.info("hello")
    assert first.getvalue() == ""
    assert second.getvalue() == "hello\n"


def test_invalid_format_rejected():
    try:
        configure_logging("yaml")
    except ValueError as exc:
        assert "log format" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("invalid format accepted")
