"""Instruments: counters, gauges, and the log-bucket histogram."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.obs.metrics import (
    HIST_SUBBUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    metric_key,
    scoped_registry,
    set_registry,
)

#: One relative bucket width — the histogram's percentile tolerance.
BUCKET_WIDTH = 2.0 ** (1.0 / HIST_SUBBUCKETS)


def observe_all(hist: Histogram, values) -> None:
    for value in values:
        hist.observe(value)


def test_counter_and_gauge():
    c = Counter()
    c.inc()
    c.inc(41)
    assert c.value == 42
    g = Gauge()
    g.set(7)
    g.set(9)
    assert g.value == 9.0  # last write wins


def test_metric_key_sorts_labels():
    assert metric_key("m") == "m"
    assert metric_key("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"


def test_histogram_moments_are_exact(rng):
    values = rng.exponential(250.0, 5000)
    h = Histogram()
    observe_all(h, values)
    assert h.count == values.size
    assert h.sum == pytest.approx(float(values.sum()))
    assert h.mean == pytest.approx(float(values.mean()))
    assert h.min == pytest.approx(float(values.min()))
    assert h.max == pytest.approx(float(values.max()))


@pytest.mark.parametrize("q", [50, 90, 99])
@pytest.mark.parametrize(
    "sample",
    ["exponential", "lognormal", "uniform", "bimodal"],
)
def test_histogram_percentiles_within_bucket_tolerance(rng, q, sample):
    """The regression contract replacing the decimated sample list:

    every percentile estimate is within one relative bucket width
    (``2**(1/4) ~ 1.19x``) of the exact ``np.percentile`` order
    statistic.
    """
    if sample == "exponential":
        values = rng.exponential(120.0, 20_000)
    elif sample == "lognormal":
        values = rng.lognormal(5.0, 1.5, 20_000)
    elif sample == "uniform":
        values = rng.uniform(10.0, 1e6, 20_000)
    else:
        # Unequal modes keep each tested rank inside a mode; at an exact
        # mode boundary np.percentile interpolates between modes, where
        # no sample (and no bucket) exists.
        values = np.concatenate(
            [rng.normal(100.0, 5.0, 12_000), rng.normal(9000.0, 100.0, 8_000)]
        )
    values = np.abs(values) + 1e-9
    h = Histogram()
    observe_all(h, values)
    exact = float(np.percentile(values, q))
    estimate = h.percentile(q)
    assert exact / BUCKET_WIDTH <= estimate <= exact * BUCKET_WIDTH


def test_histogram_percentiles_monotone(rng):
    h = Histogram()
    observe_all(h, rng.exponential(50.0, 3000))
    p50, p90, p99 = (h.percentile(q) for q in (50, 90, 99))
    assert p50 <= p90 <= p99


def test_histogram_scalar_and_array_paths_agree(rng):
    values = rng.exponential(80.0, 500)
    a, b = Histogram(), Histogram()
    observe_all(a, values)
    for v in values:
        b.observe(float(v))
    assert np.array_equal(a.bucket_counts(), b.bucket_counts())
    assert a.count == b.count
    assert a.sum == pytest.approx(b.sum)


def test_histogram_snapshot_agrees_with_bucket_counts(rng):
    """The snapshot the exporter renders holds count, sum and the
    non-empty buckets in index order, and nothing derived."""
    h = Histogram()
    values = rng.exponential(100.0, 2000)
    observe_all(h, values)
    snap = h.snapshot()
    assert set(snap) == {"count", "sum", "buckets"}
    assert snap["count"] == h.count == 2000
    assert snap["sum"] == pytest.approx(float(values.sum()))
    counts = h.bucket_counts()
    assert list(snap["buckets"]) == np.nonzero(counts)[0].tolist()
    assert list(snap["buckets"].values()) == counts[counts > 0].tolist()
    assert sum(snap["buckets"].values()) == 2000


def test_histogram_nonpositive_and_extreme_values():
    h = Histogram()
    h.observe(0.0)
    h.observe(-5.0)
    h.observe(1e30)  # beyond the top edge: clamps, never raises
    assert h.count == 3
    assert h.percentile(50) >= 0.0


def test_histogram_thread_safety(rng):
    values = rng.exponential(10.0, 2000)
    h = Histogram()
    threads = [
        threading.Thread(target=observe_all, args=(h, values)) for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert h.count == 8 * values.size
    assert int(h.bucket_counts().sum()) == h.count


def test_registry_get_or_create_and_labels():
    reg = MetricsRegistry()
    c1 = reg.counter("hits", shard=0)
    c2 = reg.counter("hits", shard=0)
    c3 = reg.counter("hits", shard=1)
    assert c1 is c2 and c1 is not c3
    c1.inc(5)
    assert reg.counters() == {"hits{shard=0}": 5, "hits{shard=1}": 0}


class _Books:
    """An owner with books of its own, as ``IndexService`` is."""

    def __init__(self, n: int):
        self.n = n

    def counters(self) -> dict:
        return {"books_total": self.n}

    def histograms(self) -> dict:
        hist = Histogram()
        hist.observe(2.0, self.n)
        return {"books_ns{shard=0}": hist}


def test_register_source_newest_registrant_wins():
    reg = MetricsRegistry()
    first, second = _Books(1), _Books(2)
    reg.register_source("books", counters=first.counters)
    reg.register_source("books", counters=second.counters, histograms=second.histograms)
    assert reg.counters() == {"books_total": 2}
    assert reg.histograms()["books_ns{shard=0}"].count == 2
    assert reg.gauges() == {}  # a read point the source does not serve


def test_sources_are_pulled_at_read_time_and_only_while_enabled():
    reg = MetricsRegistry(enabled=False)
    books = _Books(3)
    reg.register_source("books", counters=books.counters, histograms=books.histograms)
    reg.counter("own_total").inc(7)
    assert reg.counters() == {"own_total": 7} and reg.histograms() == {}
    reg.enabled = True
    assert reg.counters() == {"books_total": 3, "own_total": 7}
    books.n = 4  # no push: the next read sees the owner's value
    assert reg.counters()["books_total"] == 4
    assert list(reg.counters()) == sorted(reg.counters())


def test_a_source_lives_as_long_as_its_owner():
    reg = MetricsRegistry()
    books = _Books(5)
    reg.register_source("books", counters=books.counters)
    del books
    assert reg.counters() == {}


def test_global_registry_swap_and_scoping():
    baseline = get_registry()
    assert baseline.enabled is False  # disabled out of the box
    mine = MetricsRegistry(enabled=True)
    with scoped_registry(mine) as reg:
        assert get_registry() is reg is mine
    assert get_registry() is baseline
    previous = set_registry(mine)
    try:
        assert previous is baseline
        assert get_registry() is mine
    finally:
        set_registry(baseline)
