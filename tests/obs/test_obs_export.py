"""Exporters: JSON-lines snapshots, Prometheus text, table, validation."""

from __future__ import annotations

import json

from repro.obs.export import (
    REQUIRED_KEYS,
    snapshot,
    snapshot_table,
    snapshot_to_prometheus,
    to_prometheus,
    validate_metrics_lines,
    write_jsonl,
)
from repro.obs.metrics import Histogram, MetricsRegistry


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry(enabled=True)
    reg.counter("service_lookups_total").inc(4096)
    reg.gauge("store_runs_outstanding").set(2)
    h = reg.histogram("service_lookup_sim_ns", shard=0)
    for v in (50.0, 90.0, 120.0, 400.0):
        h.observe(v)
    return reg


def test_snapshot_shape_and_seq():
    reg = _populated_registry()
    first = snapshot(reg)
    second = snapshot(reg)
    for key in REQUIRED_KEYS:
        assert key in first
    assert second["seq"] == first["seq"] + 1
    assert first["counters"]["service_lookups_total"] == 4096
    hist = first["histograms"]["service_lookup_sim_ns{shard=0}"]
    assert hist["count"] == 4
    assert sum(hist["buckets"].values()) == 4
    assert "spans" not in first


def test_write_jsonl_appends_valid_lines(tmp_path):
    reg = _populated_registry()
    path = tmp_path / "metrics.jsonl"
    write_jsonl(path, reg)
    reg.counter("service_lookups_total").inc(100)
    write_jsonl(path, reg)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert validate_metrics_lines(lines) == []
    # Rebuilding the histogram from a snapshot line keeps it mergeable.
    snap = json.loads(lines[-1])
    hist = Histogram.from_snapshot(snap["histograms"]["service_lookup_sim_ns{shard=0}"])
    assert hist.count == 4


def test_write_jsonl_accepts_file_objects(tmp_path):
    reg = _populated_registry()
    path = tmp_path / "stream.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        write_jsonl(fh, reg)
    assert validate_metrics_lines(path.read_text().splitlines()) == []


def test_prometheus_exposition_format():
    text = to_prometheus(_populated_registry())
    assert "# TYPE service_lookups_total counter" in text
    assert "service_lookups_total 4096" in text
    assert "# TYPE store_runs_outstanding gauge" in text
    assert "# TYPE service_lookup_sim_ns histogram" in text
    assert 'service_lookup_sim_ns_bucket{shard="0",le="+Inf"} 4' in text
    assert "service_lookup_sim_ns_count{shard=\"0\"} 4" in text
    # Cumulative bucket counts are non-decreasing in le order.
    cum = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("service_lookup_sim_ns_bucket")
    ]
    assert cum == sorted(cum)


def test_snapshot_table_renders_all_kinds():
    table = snapshot_table(snapshot(_populated_registry()))
    assert "service_lookups_total" in table
    assert "store_runs_outstanding" in table
    assert "p99" in table
    assert "service_lookup_sim_ns{shard=0}" in table


def test_snapshot_table_empty():
    assert "no metrics" in snapshot_table(snapshot(MetricsRegistry()))


def test_validate_rejects_tampered_streams(tmp_path):
    reg = _populated_registry()
    path = tmp_path / "metrics.jsonl"
    write_jsonl(path, reg)
    write_jsonl(path, reg)
    good = path.read_text().splitlines()

    assert validate_metrics_lines([]) == ["stream contains no snapshot lines"]
    assert any("not valid JSON" in e for e in validate_metrics_lines(["{nope"]))
    assert any("not a JSON object" in e for e in validate_metrics_lines(["[1,2]"]))

    missing = json.loads(good[0])
    del missing["counters"]
    assert any(
        "missing required keys" in e
        for e in validate_metrics_lines([json.dumps(missing)])
    )

    # seq must strictly increase.
    assert any("seq" in e for e in validate_metrics_lines([good[1], good[0]]))

    # Counters must be monotone across lines.
    shrunk = json.loads(good[1])
    shrunk["counters"]["service_lookups_total"] = 1
    assert any(
        "decreased" in e for e in validate_metrics_lines([good[0], json.dumps(shrunk)])
    )

    # Histogram bucket counts must sum to the recorded count.
    broken = json.loads(good[0])
    broken["histograms"]["service_lookup_sim_ns{shard=0}"]["count"] += 1
    assert any(
        "bucket sum" in e for e in validate_metrics_lines([json.dumps(broken)])
    )


#: One line in the shape earlier versions wrote: a ``spans`` list beside
#: ``span_seconds{span=…}`` histograms, both since removed.
_SPAN_ERA_LINE = (
    '{"counters": {"flat_compiles_total{family=lipp}": 1, "service_merges_total": 1}, '
    '"gauges": {}, "histograms": {'
    '"span_seconds{span=flat_compile}": {"buckets": {"36": 1}, "count": 1, "max": 0.0005, '
    '"min": 0.0005, "p50": 0.0005, "p90": 0.0005, "p99": 0.0005, "sum": 0.0005}, '
    '"span_seconds{span=merge_shard}": {"buckets": {"53": 1}, "count": 1, "max": 0.01, '
    '"min": 0.01, "p50": 0.01, "p90": 0.01, "p99": 0.01, "sum": 0.01}, '
    '"span_seconds{span=smooth_keys}": {"buckets": {"44": 1}, "count": 1, "max": 0.002, '
    '"min": 0.002, "p50": 0.002, "p90": 0.002, "p99": 0.002, "sum": 0.002}}, '
    '"seq": 1, "spans": ['
    '{"depth": 2, "duration_s": 0.0005, "name": "flat_compile", "start_s": 100.0, '
    '"tags": {"family": "lipp"}}, '
    '{"depth": 2, "duration_s": 0.002, "name": "smooth_keys", "start_s": 100.001, '
    '"tags": {"budget": 300, "n": 3000}}, '
    '{"depth": 1, "duration_s": 0.01, "name": "merge_shard", "start_s": 100.0, '
    '"tags": {"keys": 500, "shard": 0}}], '
    '"ts": 1720000000.0, "v": 1}'
)


def test_span_era_lines_still_validate_and_render():
    assert validate_metrics_lines([_SPAN_ERA_LINE]) == []
    snap = json.loads(_SPAN_ERA_LINE)
    table = snapshot_table(snap)
    prom = snapshot_to_prometheus(snap)
    for span in ("merge_shard", "smooth_keys", "flat_compile"):
        assert f"span_seconds{{span={span}}}" in table
        assert f'span_seconds_count{{span="{span}"}} 1' in prom
    assert "flat_compiles_total" in table and "service_merges_total 1" in prom
