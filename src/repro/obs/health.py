"""Per-shard health model: staleness, drift, and imbalance telemetry.

The sensor layer the ROADMAP's online re-tuning item actuates on.
:meth:`IndexService.health_report()
<repro.serving.service.IndexService.health_report>` fills these
dataclasses from its always-on latency histograms, write buffers, and
the shard plan's compile-time cost predictions; the ``serve`` CLI
prints :meth:`HealthReport.to_table` as its epilogue.

Signals per shard:

* **staleness** — unmerged buffered writes over stored keys (the same
  ratio that triggers merges); warn above the service's merge
  threshold, i.e. a shard the merge machinery is failing to keep up
  with.
* **drift** — observed mean simulated latency over the compile-time
  expected per-key cost (the shard plan's Eq. 22 prediction, refreshed
  whenever a merge rebuilds the shard).  The prediction prices the
  shard as a single root-level node, so a healthy multi-level tree
  sits at a modest positive drift; the signal is its *growth* — keys
  sliding into conflict chains and deeper levels push it up.  Warn
  above :data:`DRIFT_WARN`.
* **imbalance** — max/mean of the observed per-shard mean costs (the
  runtime counterpart of the partitioner's predicted
  ``cost_imbalance``); warn above :data:`IMBALANCE_WARN`, the signal
  for re-partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ShardHealth",
    "HealthReport",
    "DRIFT_WARN",
    "IMBALANCE_WARN",
]

#: Warn when observed mean latency exceeds ``(1 + DRIFT_WARN)`` times
#: the compile-time expected per-key cost.
DRIFT_WARN = 3.0

#: Warn when the max/mean observed per-shard cost ratio exceeds this.
IMBALANCE_WARN = 2.0


@dataclass(frozen=True)
class ShardHealth:
    """Health signals of one shard (see module docstring)."""

    shard: int
    n_keys: int
    buffered: int
    staleness: float
    queries: int
    avg_ns: float
    p50_ns: float
    p90_ns: float
    p99_ns: float
    expected_ns: float
    drift: float
    status: str  # "ok" | "warn"


@dataclass(frozen=True)
class HealthReport:
    """Service-wide health: per-shard rows plus aggregate signals."""

    shards: tuple[ShardHealth, ...]
    merges: int
    buffer_hit_rate: float
    cost_imbalance: float
    status: str  # "ok" | "warn"

    def warnings(self) -> list[str]:
        """Human summaries of every warn-level signal (empty = healthy)."""
        out = []
        for row in self.shards:
            if row.status != "ok":
                out.append(
                    f"shard {row.shard}: staleness {row.staleness:.3f}, "
                    f"drift {row.drift:+.2f}"
                )
        if self.cost_imbalance > IMBALANCE_WARN:
            out.append(f"cost imbalance {self.cost_imbalance:.2f} across shards")
        return out

    def to_table(self) -> str:
        """Render the per-shard health rows as an ASCII table."""
        from ..evaluation.reporting import ascii_table

        rows = [
            [
                row.shard,
                row.n_keys,
                row.buffered,
                f"{row.staleness:.3f}",
                row.queries,
                f"{row.avg_ns:.0f}",
                f"{row.p50_ns:.0f}",
                f"{row.p90_ns:.0f}",
                f"{row.p99_ns:.0f}",
                f"{row.expected_ns:.0f}",
                f"{row.drift:+.2f}",
                row.status,
            ]
            for row in self.shards
        ]
        table = ascii_table(
            [
                "shard", "keys", "buffered", "staleness", "queries",
                "avg ns", "p50", "p90", "p99", "expect ns", "drift", "status",
            ],
            rows,
        )
        summary = (
            f"status={self.status}  merges={self.merges}  "
            f"buffer_hit_rate={self.buffer_hit_rate:.3f}  "
            f"cost_imbalance={self.cost_imbalance:.2f}"
        )
        return table + "\n" + summary


def shard_status(staleness: float, staleness_warn: float, drift: float) -> str:
    """Classify one shard: warn on runaway staleness or latency drift."""
    if staleness > staleness_warn or drift > DRIFT_WARN:
        return "warn"
    return "ok"
