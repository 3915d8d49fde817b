"""Observability: structured metrics, logs, and health.

The repo-wide instrumentation substrate (dependency-free: stdlib +
numpy).  Every subsystem reports through one
:class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges, and
fixed-layout log-bucket histograms; a timed block is one named
histogram observed at its call site.  The one exporter renders the
registry as Prometheus text, which the front door serves at
``GET /metrics``.

Instrumentation is off by default: the global registry starts
disabled, every instrumented hot path guards with a single
``registry.enabled`` check, and a component that keeps its own books
(``IndexService``) registers a source the registry pulls from only
while enabled — so the library costs nothing until the
``serve`` CLI or an embedding application installs
an enabled registry via :func:`~repro.obs.metrics.set_registry` /
:class:`~repro.obs.metrics.scoped_registry`.

See docs/OPERATIONS.md "Monitoring" for the metric catalog.
"""

from .health import IMBALANCE_WARN, HealthReport, ShardHealth
from .log import LOG_FORMATS, configure_logging, get_logger
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    metric_key,
    scoped_registry,
    set_registry,
)

__all__ = [
    "Counter",
    "Gauge",
    "HealthReport",
    "Histogram",
    "IMBALANCE_WARN",
    "LOG_FORMATS",
    "MetricsRegistry",
    "ShardHealth",
    "configure_logging",
    "get_logger",
    "get_registry",
    "metric_key",
    "scoped_registry",
    "set_registry",
]
