"""Structured logging for the CLI and library (stdlib ``logging``).

Two formats over one ``repro`` logger hierarchy:

* ``plain`` — exactly the message, to stdout.  This is the default and
  is byte-compatible with the bare ``print`` reporting it replaced:
  ``repro <cmd>`` output is unchanged unless ``--log-format json`` is
  passed.
* ``json`` — one JSON object per record: ``ts`` (ISO-8601 UTC),
  ``level``, ``logger``, ``msg``, plus any structured fields a record
  carries (``logger.info(msg, extra={"fields": {...}})``).

:func:`configure_logging` is idempotent and re-binds the stream each
call, so repeated CLI invocations in one process (tests with captured
stdout included) always log to the *current* ``sys.stdout``.
"""

from __future__ import annotations

import json
import logging
import sys
from datetime import datetime, timezone
from typing import IO

__all__ = ["LOG_FORMATS", "configure_logging", "get_logger"]

#: Accepted values of the CLI ``--log-format`` flag.
LOG_FORMATS = ("plain", "json")

#: Root of the library's logger hierarchy.
ROOT_LOGGER = "repro"


class JsonFormatter(logging.Formatter):
    """One JSON object per record, structured fields included."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": datetime.fromtimestamp(record.created, tz=timezone.utc).isoformat(),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        fields = getattr(record, "fields", None)
        if fields:
            payload["fields"] = fields
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


class PlainFormatter(logging.Formatter):
    """The bare message; structured fields append as ``key=value``."""

    def format(self, record: logging.LogRecord) -> str:
        msg = record.getMessage()
        fields = getattr(record, "fields", None)
        if fields:
            suffix = " ".join(f"{k}={v}" for k, v in fields.items())
            msg = f"{msg} {suffix}" if msg else suffix
        return msg


def configure_logging(
    fmt: str = "plain",
    stream: IO[str] | None = None,
    level: int = logging.INFO,
) -> logging.Logger:
    """(Re)configure the ``repro`` logger; returns it.

    Args:
        fmt: ``"plain"`` (byte-compatible message passthrough) or
            ``"json"`` (structured lines).
        stream: target stream; defaults to the *current*
            ``sys.stdout`` at call time.
        level: logging threshold (default INFO).
    """
    if fmt not in LOG_FORMATS:
        raise ValueError(f"log format must be one of {LOG_FORMATS}, got {fmt!r}")
    logger = logging.getLogger(ROOT_LOGGER)
    logger.setLevel(level)
    logger.propagate = False
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stdout)
    handler.setFormatter(JsonFormatter() if fmt == "json" else PlainFormatter())
    logger.addHandler(handler)
    return logger


def get_logger(name: str | None = None) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``repro.<name>``)."""
    return logging.getLogger(f"{ROOT_LOGGER}.{name}" if name else ROOT_LOGGER)
