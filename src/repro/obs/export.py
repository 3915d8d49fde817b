"""Exporters for the metrics registry.

Three views of the same :class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`snapshot` / :func:`write_jsonl` — a JSON-lines stream of
  cumulative snapshots (schema below), the machine-readable feed the
  ``serve --metrics-out`` CLI writes and CI validates.
* :func:`to_prometheus` / :func:`snapshot_to_prometheus` — Prometheus
  text exposition (counters, gauges, and cumulative ``_bucket`` lines
  rebuilt from the fixed log-bucket layout).
* :func:`snapshot_table` — the human ``repro metrics`` ASCII table.

JSON-lines schema (one object per line, ``v`` = 1)::

    {"v": 1, "seq": 3, "ts": 1720000000.0,
     "counters":   {"service_lookups_total": 4096, ...},
     "gauges":     {"shard_buffered_keys{shard=0}": 0.0, ...},
     "histograms": {"service_lookup_sim_ns{shard=0}":
                      {"count": 512, "sum": ..., "min": ..., "max": ...,
                       "p50": ..., "p90": ..., "p99": ...,
                       "buckets": {"112": 37, ...}}, ...}}

Snapshots are *cumulative*: within one stream ``seq`` strictly
increases and every counter (and histogram count) is monotonically
non-decreasing — :func:`validate_metrics_lines` checks exactly that,
plus per-line shape, and is what ``repro metrics --validate`` runs.
Keys beyond :data:`REQUIRED_KEYS` are ignored, so older streams that
also carry a ``spans`` list still validate and render.
Because histogram snapshots carry their sparse bucket counts, two
streams from different processes merge by
:meth:`Histogram.from_snapshot(...).merge(...)
<repro.obs.metrics.Histogram.merge>`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO, Iterable

from .metrics import Histogram, MetricsRegistry

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "snapshot",
    "write_jsonl",
    "to_prometheus",
    "snapshot_to_prometheus",
    "snapshot_table",
    "validate_metrics_lines",
]

#: The content type a scrape endpoint must serve the text exposition
#: under (what the HTTP front door's ``GET /metrics`` sends).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Schema version stamped on every snapshot line.
SCHEMA_VERSION = 1

#: Keys every snapshot line must carry.
REQUIRED_KEYS = ("v", "seq", "ts", "counters", "gauges", "histograms")

#: Keys every histogram snapshot must carry.
REQUIRED_HIST_KEYS = ("count", "sum", "buckets", "p50", "p90", "p99")


def snapshot(registry: MetricsRegistry, ts: float | None = None) -> dict:
    """One cumulative JSON-safe snapshot of *registry* (see schema)."""
    return {
        "v": SCHEMA_VERSION,
        "seq": registry.next_snapshot_seq(),
        "ts": time.time() if ts is None else float(ts),
        "counters": registry.counters(),
        "gauges": registry.gauges(),
        "histograms": {k: h.snapshot() for k, h in registry.histograms().items()},
    }


def write_jsonl(
    target: str | Path | IO[str], registry: MetricsRegistry, ts: float | None = None
) -> dict:
    """Append one snapshot line to *target* (path opens in append mode)."""
    snap = snapshot(registry, ts=ts)
    line = json.dumps(snap, sort_keys=True) + "\n"
    if hasattr(target, "write"):
        target.write(line)
    else:
        with open(target, "a", encoding="utf-8") as fh:
            fh.write(line)
    return snap


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _split_key(key: str) -> tuple[str, str]:
    """``name{a=1,b=2}`` → ``("name", '{a="1",b="2"}')`` (prom-quoted)."""
    if "{" not in key:
        return key, ""
    name, __, raw = key.partition("{")
    pairs = []
    for part in raw.rstrip("}").split(","):
        label, __, value = part.partition("=")
        pairs.append(f'{label}="{value}"')
    return name, "{" + ",".join(pairs) + "}"


def snapshot_to_prometheus(snap: dict) -> str:
    """Render one JSON snapshot as Prometheus text exposition."""
    lines: list[str] = []
    typed: set[str] = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key, value in snap.get("counters", {}).items():
        name, labels = _split_key(key)
        declare(name, "counter")
        lines.append(f"{name}{labels} {value}")
    for key, value in snap.get("gauges", {}).items():
        name, labels = _split_key(key)
        declare(name, "gauge")
        lines.append(f"{name}{labels} {value}")
    for key, hist_snap in snap.get("histograms", {}).items():
        name, labels = _split_key(key)
        declare(name, "histogram")
        inner = labels[1:-1] if labels else ""
        cum = 0
        for raw in sorted(hist_snap.get("buckets", {}), key=int):
            cum += int(hist_snap["buckets"][raw])
            edge = Histogram.bucket_upper_edge(int(raw))
            sep = "," if inner else ""
            lines.append(f'{name}_bucket{{{inner}{sep}le="{edge:.6g}"}} {cum}')
        sep = "," if inner else ""
        lines.append(f'{name}_bucket{{{inner}{sep}le="+Inf"}} {hist_snap["count"]}')
        lines.append(f"{name}_sum{labels} {hist_snap['sum']}")
        lines.append(f"{name}_count{labels} {hist_snap['count']}")
    return "\n".join(lines) + "\n"


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition of the registry's current state."""
    return snapshot_to_prometheus(snapshot(registry))


# ----------------------------------------------------------------------
# Human table
# ----------------------------------------------------------------------
def snapshot_table(snap: dict) -> str:
    """Render one JSON snapshot as the ``repro metrics`` ASCII tables."""
    # Local import: evaluation pulls in the index stack, which must not
    # load just because something imports repro.obs.
    from ..evaluation.reporting import ascii_table

    parts: list[str] = []
    scalar_rows = [["counter", k, _fmt(v)] for k, v in snap.get("counters", {}).items()]
    scalar_rows += [["gauge", k, _fmt(v)] for k, v in snap.get("gauges", {}).items()]
    if scalar_rows:
        parts.append(ascii_table(["kind", "metric", "value"], scalar_rows))
    hist_rows = [
        [
            k,
            h.get("count", 0),
            _fmt(h["sum"] / h["count"] if h.get("count") else 0.0),
            _fmt(h.get("p50", 0.0)),
            _fmt(h.get("p90", 0.0)),
            _fmt(h.get("p99", 0.0)),
        ]
        for k, h in snap.get("histograms", {}).items()
    ]
    if hist_rows:
        parts.append(ascii_table(["histogram", "count", "avg", "p50", "p90", "p99"], hist_rows))
    if not parts:
        return "(no metrics recorded)"
    return "\n\n".join(parts)


def _fmt(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.2f}"
    return f"{int(value):,}"


# ----------------------------------------------------------------------
# Schema validation (the CI smoke contract)
# ----------------------------------------------------------------------
def validate_metrics_lines(lines: Iterable[str]) -> list[str]:
    """Validate a JSON-lines metrics stream; returns error strings.

    Checks, per the schema above: every non-empty line parses as a
    JSON object carrying :data:`REQUIRED_KEYS` with the right shapes;
    ``seq`` strictly increases; every counter value and histogram
    count is numeric and monotonically non-decreasing across lines.
    An empty list means the stream is valid.
    """
    errors: list[str] = []
    prev_seq: int | None = None
    prev_counters: dict[str, float] = {}
    prev_hist_counts: dict[str, int] = {}
    n_lines = 0
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        n_lines += 1
        try:
            snap = json.loads(raw)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        if not isinstance(snap, dict):
            errors.append(f"line {lineno}: not a JSON object")
            continue
        missing = [k for k in REQUIRED_KEYS if k not in snap]
        if missing:
            errors.append(f"line {lineno}: missing required keys {missing}")
            continue
        if snap["v"] != SCHEMA_VERSION:
            errors.append(f"line {lineno}: schema version {snap['v']!r} != {SCHEMA_VERSION}")
        seq = snap["seq"]
        if not isinstance(seq, int):
            errors.append(f"line {lineno}: seq must be an int")
        elif prev_seq is not None and seq <= prev_seq:
            errors.append(f"line {lineno}: seq {seq} not greater than previous {prev_seq}")
        else:
            prev_seq = seq
        for section in ("counters", "gauges", "histograms"):
            if not isinstance(snap[section], dict):
                errors.append(f"line {lineno}: {section} must be an object")
        counters = snap.get("counters", {})
        if isinstance(counters, dict):
            for key, value in counters.items():
                if not isinstance(value, (int, float)):
                    errors.append(f"line {lineno}: counter {key!r} is not numeric")
                    continue
                if value < prev_counters.get(key, 0):
                    errors.append(
                        f"line {lineno}: counter {key!r} decreased "
                        f"({prev_counters[key]} -> {value})"
                    )
                prev_counters[key] = value
        histograms = snap.get("histograms", {})
        if isinstance(histograms, dict):
            for key, hist_snap in histograms.items():
                if not isinstance(hist_snap, dict):
                    errors.append(f"line {lineno}: histogram {key!r} is not an object")
                    continue
                hist_missing = [k for k in REQUIRED_HIST_KEYS if k not in hist_snap]
                if hist_missing:
                    errors.append(
                        f"line {lineno}: histogram {key!r} missing {hist_missing}"
                    )
                    continue
                count = hist_snap["count"]
                if not isinstance(count, int):
                    errors.append(f"line {lineno}: histogram {key!r} count not an int")
                    continue
                if count < prev_hist_counts.get(key, 0):
                    errors.append(
                        f"line {lineno}: histogram {key!r} count decreased "
                        f"({prev_hist_counts[key]} -> {count})"
                    )
                prev_hist_counts[key] = count
                bucket_total = sum(int(c) for c in hist_snap["buckets"].values())
                if bucket_total != count:
                    errors.append(
                        f"line {lineno}: histogram {key!r} bucket sum "
                        f"{bucket_total} != count {count}"
                    )
    if n_lines == 0:
        errors.append("stream contains no snapshot lines")
    return errors
