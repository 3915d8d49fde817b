"""Prometheus text exposition of the metrics registry.

:func:`to_prometheus` renders a :class:`~repro.obs.metrics.MetricsRegistry`
as it is right now — counters, gauges, and cumulative ``_bucket``
lines rebuilt from the fixed log-bucket layout — which is what the
HTTP front door's ``GET /metrics`` serves.
"""

from __future__ import annotations

from .metrics import Histogram, MetricsRegistry

__all__ = ["PROMETHEUS_CONTENT_TYPE", "to_prometheus"]

#: The content type a scrape endpoint must serve the text exposition
#: under (what the HTTP front door's ``GET /metrics`` sends).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


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


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition of the registry's current state."""
    lines: list[str] = []
    typed: set[str] = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key, value in registry.counters().items():
        name, labels = _split_key(key)
        declare(name, "counter")
        lines.append(f"{name}{labels} {value}")
    for key, value in registry.gauges().items():
        name, labels = _split_key(key)
        declare(name, "gauge")
        lines.append(f"{name}{labels} {value}")
    for key, hist in registry.histograms().items():
        name, labels = _split_key(key)
        declare(name, "histogram")
        snap = hist.snapshot()
        inner = labels[1:-1] if labels else ""
        sep = "," if inner else ""
        cum = 0
        for i, count in snap["buckets"].items():
            cum += count
            edge = Histogram.bucket_upper_edge(i)
            lines.append(f'{name}_bucket{{{inner}{sep}le="{edge:.6g}"}} {cum}')
        lines.append(f'{name}_bucket{{{inner}{sep}le="+Inf"}} {snap["count"]}')
        lines.append(f"{name}_sum{labels} {snap['sum']}")
        lines.append(f"{name}_count{labels} {snap['count']}")
    return "\n".join(lines) + "\n"
