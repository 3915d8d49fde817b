"""Service observability: health report, exact priced percentiles,
the no-op fast path, and the structured log format."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.obs.health import HealthReport, ShardHealth
from repro.obs.metrics import MetricsRegistry, scoped_registry
from repro.serving import IndexService


@pytest.fixture()
def dataset(rng):
    keys = np.unique(rng.integers(0, 10**8, 12_000).astype(np.int64))
    return keys, keys * 3


def _fresh_keys(keys: np.ndarray, n: int, rng) -> np.ndarray:
    return int(keys[-1]) + 1 + rng.permutation(np.arange(n, dtype=np.int64) * 7)


# ----------------------------------------------------------------------
# health_report
# ----------------------------------------------------------------------
def test_health_report_fields_and_statuses(dataset, rng):
    keys, values = dataset
    with IndexService.build(keys, family="lipp", n_shards=4, values=values) as svc:
        queries = rng.choice(keys, 3000)
        svc.lookup_many(queries)
        report = svc.health_report()
        assert isinstance(report, HealthReport)
        assert len(report.shards) == 4
        total_queries = 0
        for shard_no, row in enumerate(report.shards):
            assert isinstance(row, ShardHealth)
            assert row.shard == shard_no
            assert row.n_keys > 0
            assert row.buffered == 0 and row.staleness == 0.0
            assert row.p50_ns <= row.p90_ns <= row.p99_ns
            assert row.avg_levels >= 1.0
            assert row.status == "ok"
            total_queries += row.queries
        assert total_queries == queries.size == report.total.queries
        assert report.total.shard == -1 and report.total.status == report.status
        assert report.total.n_keys == keys.size
        assert report.status == "ok"
        assert not hasattr(report, "merge_queue_depth")  # nothing queues
        assert report.cost_imbalance >= 1.0


def test_health_report_flags_stale_shards(dataset, rng):
    keys, values = dataset
    # A threshold no workload crosses: writes pile up unmerged.
    with IndexService.build(
        keys, family="lipp", n_shards=4, values=values, staleness_threshold=100.0
    ) as svc:
        svc.insert_many(_fresh_keys(keys, 4000, rng))
        report = svc.health_report()
        stale = [r for r in report.shards if r.buffered > 0]
        assert stale
        assert all(r.staleness > 0 for r in stale)
        # staleness_threshold=100 means staleness ~0.3 is still "ok";
        # health mirrors the merge trigger, not an absolute scale.
        assert report.status == "ok"


def test_health_report_warns_past_merge_threshold(dataset, rng):
    keys, values = dataset
    svc = IndexService.build(keys, family="lipp", n_shards=2, values=values)
    try:
        # Bypass insert_many's merge trigger: stuff a buffer directly,
        # as a merge backlog would.
        fresh = _fresh_keys(keys, 2000, rng)
        svc._buffers[0].put_run(np.sort(fresh), np.sort(fresh))
        report = svc.health_report()
        assert report.shards[0].staleness > svc.staleness_threshold
        assert report.shards[0].status == "warn"
        assert report.status == "warn"
    finally:
        svc.close()


# ----------------------------------------------------------------------
# Priced percentiles vs exact samples (once the regression test for
# replacing the decimated sample list by histograms; the ledger made
# the bucket tolerance go)
# ----------------------------------------------------------------------
def test_latency_report_matches_exact_percentiles(dataset, rng):
    keys, values = dataset
    with IndexService.build(keys, family="lipp", n_shards=4, values=values) as svc:
        exact_ns, exact_levels = [], []
        for _ in range(5):
            queries = rng.choice(keys, 2000)
            batch = svc.lookup_many(queries)
            exact_ns.append(batch.simulated_ns(svc.constants))
            exact_levels.append(batch.levels)
        exact = np.concatenate(exact_ns)
        total = svc.health_report().total
        assert total.queries == exact.size
        assert total.avg_ns == pytest.approx(float(exact.mean()))
        assert total.avg_levels == pytest.approx(float(np.concatenate(exact_levels).mean()))
        for q, got in ((50, total.p50_ns), (90, total.p90_ns), (99, total.p99_ns)):
            assert got == float(np.percentile(exact, q, method="inverted_cdf"))


def test_latency_total_is_merge_of_shards(dataset, rng):
    keys, values = dataset
    with IndexService.build(keys, family="lipp", n_shards=4, values=values) as svc:
        svc.lookup_many(rng.choice(keys, 4000))
        report = svc.health_report()
        assert report.total.queries == sum(r.queries for r in report.shards)
        assert report.total.p99_ns >= max(r.p50_ns for r in report.shards)
        assert report.total.avg_ns == pytest.approx(
            sum(r.avg_ns * r.queries for r in report.shards) / report.total.queries
        )


# ----------------------------------------------------------------------
# No-op fast path
# ----------------------------------------------------------------------
def test_results_bit_identical_metrics_on_vs_off(dataset, rng):
    keys, values = dataset
    queries = rng.choice(keys, 3000)
    fresh = _fresh_keys(keys, 500, rng)

    def run(registry):
        with scoped_registry(registry):
            with IndexService.build(
                keys, family="lipp", n_shards=4, values=values
            ) as svc:
                batch = svc.lookup_many(queries)
                svc.insert_many(fresh)
                svc.flush()
                after = svc.lookup_many(np.concatenate([queries[:500], fresh]))
                return batch, after, svc.stats

    off_b, off_a, off_stats = run(MetricsRegistry(enabled=False))
    on_b, on_a, on_stats = run(MetricsRegistry(enabled=True))
    for off, on in ((off_b, on_b), (off_a, on_a)):
        assert np.array_equal(off.found, on.found)
        assert np.array_equal(off.values, on.values)
        assert np.array_equal(off.levels, on.levels)
        assert np.array_equal(off.search_steps, on.search_steps)
    assert off_stats == on_stats  # ServiceStats is registry-independent


def test_disabled_registry_records_nothing(dataset, rng):
    keys, values = dataset
    registry = MetricsRegistry(enabled=False)
    with scoped_registry(registry):
        with IndexService.build(keys, family="lipp", n_shards=4, values=values) as svc:
            svc.lookup_many(rng.choice(keys, 2000))
            svc.insert_many(_fresh_keys(keys, 2000, rng))
            svc.flush()
            # The ledger is the service's own and always kept ...
            assert svc.stats.n_lookups == 2000 and svc.stats.merges > 0
            assert svc.health_report().total.queries == 2000
            # ... but a disabled registry pulls nothing from it, and no
            # instrument anywhere recorded: every counter is zero.
            assert all(v == 0 for v in registry.counters().values())
            assert all(v == 0.0 for v in registry.gauges().values())
            assert all(h.count == 0 for h in registry.histograms().values())
            assert not any(
                key.startswith(("service_lookup", "shard_"))
                for key in (*registry.gauges(), *registry.histograms())
            )


def test_enabled_registry_mirrors_service_stats(dataset, rng):
    keys, values = dataset
    registry = MetricsRegistry(enabled=True)
    with scoped_registry(registry):
        with IndexService.build(keys, family="lipp", n_shards=4, values=values) as svc:
            svc.lookup_many(rng.choice(keys, 2000))
            svc.insert_many(_fresh_keys(keys, 2000, rng))
            svc.flush()
            counters = registry.counters()
            stats = svc.stats
    assert counters["service_lookups_total"] == stats.n_lookups
    assert counters["service_inserts_total"] == stats.n_inserts
    assert counters["service_merges_total"] == stats.merges
    assert counters["service_merged_keys_total"] == stats.merged_keys
    assert counters["service_buffer_hits_total"] == stats.buffer_hits
    assert counters["router_routed_keys_total"] > 0


def test_each_timed_block_keeps_one_clock(dataset, rng):
    """The merge, the smoothing run and the flat compile are each timed
    by exactly one histogram, and nothing else exports their duration."""
    keys, values = dataset
    registry = MetricsRegistry(enabled=True)
    with scoped_registry(registry):
        with IndexService.build(
            keys, family="lipp", n_shards=4, values=values, alpha=0.1
        ) as svc:
            svc.insert_many(_fresh_keys(keys, 2000, rng))
            svc.flush()
            assert svc.stats.merges > 0
            histograms = registry.histograms()
    for key in ("service_merge_seconds", "smooth_seconds", "flat_compile_seconds{family=lipp}"):
        assert histograms[key].count > 0, key
    assert not any(key.startswith("span_seconds") for key in histograms)


def test_log_format_json_wraps_every_line(capsys):
    rc = main([
        "--log-format", "json", "build", "--index", "lipp", "--dataset", "osm",
        "--n", "3000",
    ])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert lines
    for line in lines:
        record = json.loads(line)
        assert record["logger"].startswith("repro")
        assert "msg" in record
