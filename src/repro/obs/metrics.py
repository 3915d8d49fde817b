"""Structured metrics: counters, gauges, and log-bucket histograms.

The instruments here are deliberately dumb data holders — a
:class:`Counter` adds, a :class:`Gauge` stores, a :class:`Histogram`
bins — with *no* internal enabled/disabled state.  Whether a hot path
records anything at all is decided at the call site with one guard::

    reg = get_registry()
    if reg.enabled:                # the near-zero-cost no-op gate
        reg.counter("merges_total").inc()

so a disabled registry costs a single attribute load and branch per
instrumented block, allocates nothing, and cannot perturb results
(``tests/obs`` asserts bit-identical service output metrics-on vs
metrics-off).

A component that keeps books of its own (``IndexService``) registers
a *source* instead (:meth:`MetricsRegistry.register_source`): the
registry pulls at its read points, the owner's hot path never asks
whether anyone is watching.

Histogram layout
----------------

Every histogram shares one **fixed log-bucket layout**: bucket ``i``
covers ``[2**(i/S + E), 2**((i+1)/S + E))`` with ``S = 4`` sub-buckets
per octave and ``E = HIST_EXP_MIN`` octaves of underflow headroom.
Because the layout is a global constant, the Prometheus exporter
rebuilds every ``le`` edge from a bucket index alone, and no raw
sample is retained.  Relative bucket width is ``2**(1/4) ≈ 1.19``, so
any percentile estimate is within ~19% of the exact order statistic
(``tests/obs/test_obs_metrics.py`` pins this against ``np.percentile``).
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Callable

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "scoped_registry",
    "metric_key",
]

#: Sub-buckets per octave (power of two).  Relative bucket width is
#: ``2**(1/HIST_SUBBUCKETS)``; 4 gives ~19% wide buckets.
HIST_SUBBUCKETS = 4
#: Smallest resolvable magnitude is ``2**HIST_EXP_MIN`` (~1e-6, enough
#: for sub-microsecond durations in seconds); anything at or
#: below it lands in bucket 0.
HIST_EXP_MIN = -20
#: Largest resolvable magnitude is ``2**HIST_EXP_MAX`` (~1.7e13,
#: enough for simulated-ns totals); larger values clamp into the top
#: bucket.
HIST_EXP_MAX = 44
#: Total number of buckets in the fixed layout.
HIST_BUCKETS = (HIST_EXP_MAX - HIST_EXP_MIN) * HIST_SUBBUCKETS


def metric_key(name: str, labels: dict | None = None) -> str:
    """Canonical flat key: ``name`` or ``name{k=v,...}`` (sorted by k)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count (float to allow key totals)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        """Add *n* (default 1) to the count."""
        self.value += n


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: int | float) -> None:
        """Overwrite the gauge with *v*."""
        self.value = float(v)


class Histogram:
    """Streaming log-bucket histogram with exact count/sum/min/max.

    See the module docstring for the fixed bucket layout.  All
    mutating operations take the instance lock so the front door's
    concurrent reader threads can share one histogram.
    """

    __slots__ = ("_counts", "count", "sum", "min", "max", "_lock")

    def __init__(self) -> None:
        self._counts = np.zeros(HIST_BUCKETS, dtype=np.int64)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @staticmethod
    def bucket_of(value: float) -> int:
        """Bucket index of one value under the fixed layout."""
        if value <= 0.0 or not math.isfinite(value):
            return 0
        i = math.floor(math.log2(value) * HIST_SUBBUCKETS) - HIST_EXP_MIN * HIST_SUBBUCKETS
        return min(max(i, 0), HIST_BUCKETS - 1)

    @staticmethod
    def bucket_upper_edge(i: int) -> float:
        """Exclusive upper bound of bucket *i*."""
        return 2.0 ** ((i + 1) / HIST_SUBBUCKETS + HIST_EXP_MIN)

    @staticmethod
    def bucket_mid(i: int) -> float:
        """Geometric midpoint of bucket *i* (the percentile estimate)."""
        return 2.0 ** ((i + 0.5) / HIST_SUBBUCKETS + HIST_EXP_MIN)

    def observe(self, value: float, n: int = 1) -> None:
        """Record one scalar observation (*n* times over)."""
        value = float(value)
        with self._lock:
            self._counts[self.bucket_of(value)] += n
            self.count += n
            self.sum += value * n
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        """Exact arithmetic mean of every observation (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated *q*-th percentile (``0 <= q <= 100``).

        The estimate is the geometric midpoint of the bucket holding
        the target order statistic, clamped into the observed
        ``[min, max]`` — within one relative bucket width
        (``2**(1/4)``) of the exact value, and monotone in *q*.
        """
        with self._lock:
            if self.count == 0:
                return 0.0
            target = max(1, math.ceil(self.count * q / 100.0))
            cum = np.cumsum(self._counts)
            bucket = int(np.searchsorted(cum, target))
        return float(min(max(self.bucket_mid(bucket), self.min), self.max))

    def snapshot(self) -> dict:
        """Count, sum and the non-empty buckets (index → count, in
        index order), read together under the lock."""
        with self._lock:
            return {
                "count": self.count,
                "sum": self.sum,
                "buckets": {int(i): int(self._counts[i]) for i in np.nonzero(self._counts)[0]},
            }

    def bucket_counts(self) -> np.ndarray:
        """A copy of the full fixed-layout bucket-count array."""
        with self._lock:
            return self._counts.copy()


class MetricsRegistry:
    """Named instruments and the registered sources it pulls from.

    One registry is one observability domain: the process-global
    default (see :func:`get_registry`) collects everything unless a
    component is handed its own.  ``enabled`` is the single no-op
    gate every instrumented hot path checks before touching an
    instrument; a disabled registry can still *hold* instruments and
    sources, it just tells call sites not to spend anything on
    optional accounting and pulls from no source.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sources: dict[str, dict[str, weakref.WeakMethod]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Instrument access (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        """Get or create the counter named ``name{labels}``."""
        key = metric_key(name, labels)
        got = self._counters.get(key)
        if got is None:
            with self._lock:
                got = self._counters.setdefault(key, Counter())
        return got

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create the gauge named ``name{labels}``."""
        key = metric_key(name, labels)
        got = self._gauges.get(key)
        if got is None:
            with self._lock:
                got = self._gauges.setdefault(key, Gauge())
        return got

    def histogram(self, name: str, **labels) -> Histogram:
        """Get or create the histogram named ``name{labels}``."""
        key = metric_key(name, labels)
        got = self._histograms.get(key)
        if got is None:
            with self._lock:
                got = self._histograms.setdefault(key, Histogram())
        return got

    def register_source(self, name: str, **readers: Callable[[], dict]) -> None:
        """Adopt an owner's books under *name* (the newest registrant wins).

        *readers* maps a read point — ``counters=``, ``gauges=``,
        ``histograms=`` — to a bound method of the owner returning
        ``{flat key: value}`` (a :class:`Histogram` per key for
        ``histograms``).  Each is called at its read point while the
        registry is enabled, so what is exported is what the owner
        holds at that instant.  Methods are held weakly: a source
        lives exactly as long as its owner.
        """
        with self._lock:
            self._sources[name] = {
                kind: weakref.WeakMethod(read) for kind, read in readers.items()
            }

    def _read(self, kind: str, own: dict) -> dict:
        """One read point: *own* instruments, overlaid with what the
        live sources hold right now (none while disabled), sorted."""
        merged = dict(own)
        if self.enabled:
            for readers in list(self._sources.values()):
                read = readers[kind]() if kind in readers else None
                if read is not None:
                    merged.update(read())
        return dict(sorted(merged.items()))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int | float]:
        """Current counter values by flat key (sorted)."""
        return self._read("counters", {k: c.value for k, c in self._counters.items()})

    def gauges(self) -> dict[str, float]:
        """Current gauge values by flat key (sorted)."""
        return self._read("gauges", {k: g.value for k, g in self._gauges.items()})

    def histograms(self) -> dict[str, Histogram]:
        """The histogram instruments by flat key (sorted): the live
        ones, and a fresh one per key a source derives."""
        return self._read("histograms", self._histograms)


#: Process-global default registry.  Disabled out of the box so
#: importing repro never pays for instrumentation; the serve CLI (or
#: an embedding application) swaps in an enabled registry.
_default_registry = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-global registry instrumented code reports into."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the global registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


class scoped_registry:
    """Context manager installing *registry* globally for a block.

    The benchmark harness and tests use this to flip instrumentation
    on/off without leaking state::

        with scoped_registry(MetricsRegistry(enabled=True)) as reg:
            service.lookup_many(queries)
        assert reg.counters()["service_lookups_total"] > 0
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self.registry)
        return self.registry

    def __exit__(self, *exc) -> None:
        assert self._previous is not None
        set_registry(self._previous)
