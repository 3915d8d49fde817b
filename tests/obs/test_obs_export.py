"""Exporter: Prometheus text exposition of a live registry."""

from __future__ import annotations

import numpy as np

from repro.obs.export import to_prometheus
from repro.obs.metrics import Histogram, MetricsRegistry


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry(enabled=True)
    reg.counter("service_lookups_total").inc(4096)
    reg.gauge("store_runs_outstanding").set(2)
    h = reg.histogram("service_lookup_sim_ns", shard=0)
    for v in (50.0, 90.0, 120.0, 400.0):
        h.observe(v)
    return reg


def test_prometheus_exposition_format():
    text = to_prometheus(_populated_registry())
    assert "# TYPE service_lookups_total counter" in text
    assert "service_lookups_total 4096" in text
    assert "# TYPE store_runs_outstanding gauge" in text
    assert "# TYPE service_lookup_sim_ns histogram" in text
    assert 'service_lookup_sim_ns_bucket{shard="0",le="+Inf"} 4' in text
    assert "service_lookup_sim_ns_count{shard=\"0\"} 4" in text
    assert 'service_lookup_sim_ns_sum{shard="0"} 660.0' in text
    # Cumulative bucket counts are non-decreasing in le order, and the
    # finite edges ascend.
    buckets = [line for line in text.splitlines() if line.startswith("service_lookup_sim_ns_bucket")]
    cum = [int(line.rsplit(" ", 1)[1]) for line in buckets]
    assert cum == sorted(cum)
    edges = [float(line.split('le="', 1)[1].split('"', 1)[0]) for line in buckets[:-1]]
    assert edges == sorted(edges) and len(set(edges)) == len(edges)


def test_prometheus_empty_registry_renders_no_series():
    assert to_prometheus(MetricsRegistry()) == "\n"


def test_prometheus_declares_each_family_once():
    reg = MetricsRegistry(enabled=True)
    reg.counter("http_requests_total", route="lookup").inc(3)
    reg.counter("http_requests_total", route="insert").inc(1)
    for shard in (0, 1):
        reg.histogram("service_lookup_sim_ns", shard=shard).observe(100.0 + shard)
    text = to_prometheus(reg)
    assert text.count("# TYPE http_requests_total counter") == 1
    assert text.count("# TYPE service_lookup_sim_ns histogram") == 1
    assert 'http_requests_total{route="lookup"} 3' in text
    assert 'http_requests_total{route="insert"} 1' in text
    for shard in (0, 1):
        assert f'service_lookup_sim_ns_count{{shard="{shard}"}} 1' in text


def test_prometheus_unlabelled_histogram_has_only_the_le_label():
    reg = MetricsRegistry(enabled=True)
    reg.histogram("http_batch_seconds").observe(0.25)
    lines = to_prometheus(reg).splitlines()
    buckets = [line for line in lines if line.startswith("http_batch_seconds_bucket")]
    assert buckets and all(line.startswith('http_batch_seconds_bucket{le="') for line in buckets)
    assert buckets[-1] == 'http_batch_seconds_bucket{le="+Inf"} 1'
    assert "http_batch_seconds_sum 0.25" in lines
    assert "http_batch_seconds_count 1" in lines


def test_prometheus_cumulative_buckets_count_what_lies_below_each_edge(rng):
    """Each ``le`` line counts the observations whose bucket ends at or
    below that edge: what a scraper's ``histogram_quantile`` reads."""
    values = rng.exponential(200.0, 3000)
    reg = MetricsRegistry(enabled=True)
    hist = reg.histogram("service_lookup_sim_ns")
    for value in values:
        hist.observe(value)
    upper = np.array([Histogram.bucket_upper_edge(Histogram.bucket_of(v)) for v in values])
    text = to_prometheus(reg)
    finite = [
        line for line in text.splitlines()
        if line.startswith("service_lookup_sim_ns_bucket") and "+Inf" not in line
    ]
    assert finite
    for line in finite:
        edge = float(line.split('le="', 1)[1].split('"', 1)[0])
        cum = int(line.rsplit(" ", 1)[1])
        assert cum == int(np.count_nonzero(upper <= edge * (1 + 1e-5)))
    assert f'service_lookup_sim_ns_bucket{{le="+Inf"}} {values.size}' in text


class _Books:
    """An owner whose counter the registry pulls at each scrape."""

    def __init__(self) -> None:
        self.reads = 0

    def counters(self) -> dict:
        return {"service_lookups_total": self.reads}


def test_prometheus_reads_registered_sources_at_render_time():
    reg = MetricsRegistry(enabled=True)
    books = _Books()
    reg.register_source("service", counters=books.counters)
    books.reads = 7
    assert "service_lookups_total 7" in to_prometheus(reg)
    books.reads = 9
    assert "service_lookups_total 9" in to_prometheus(reg)
    reg.enabled = False
    assert "service_lookups_total" not in to_prometheus(reg)
