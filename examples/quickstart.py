"""Quickstart: smooth a key set, build a learned index, optimise it.

Run with::

    python examples/quickstart.py

Walks through the library's three core moves in under a minute:

1. Algorithm 1 — CDF smoothing of a raw key set with virtual points.
2. Building a LIPP learned index over the keys.
3. Algorithm 2 (CSV) — optimising the built index in place, then
   comparing query costs for the promoted keys.
"""

from __future__ import annotations

import numpy as np

from repro import CsvConfig, LippIndex, adapter_for, apply_csv, smooth_keys
from repro.workloads import profile_queries


def keys_per_level(index, keys: np.ndarray) -> dict[int, int]:
    levels, counts = np.unique(index.key_levels(keys), return_counts=True)
    return dict(zip(levels.tolist(), counts.tolist()))


def main() -> None:
    rng = np.random.default_rng(7)

    # A mildly clustered key set: a uniform base plus two dense pockets.
    keys = np.unique(
        np.concatenate(
            [
                rng.integers(0, 1_000_000, 20_000),
                500_000 + rng.integers(0, 2_000, 3_000),
                750_000 + rng.integers(0, 1_000, 2_000),
            ]
        )
    )
    print(f"keys: {keys.size} unique integers in [{keys[0]}, {keys[-1]}]")

    # ------------------------------------------------------------------
    # 1. Smooth the CDF with virtual points (Algorithm 1).
    # ------------------------------------------------------------------
    result = smooth_keys(keys, alpha=0.1)
    print(
        f"\nAlgorithm 1: inserted {result.n_virtual} virtual points "
        f"(budget {result.budget})"
    )
    print(f"  loss before: {result.original_loss:,.0f}")
    print(f"  loss after:  {result.final_loss:,.0f} "
          f"({result.loss_improvement_pct:.1f}% better)")

    # ------------------------------------------------------------------
    # 2. Build a learned index (LIPP).
    # ------------------------------------------------------------------
    index = LippIndex.build(keys)
    print(f"\nLIPP: height {index.height()}, {index.node_count()} nodes")
    print(f"  keys per level: {keys_per_level(index, keys)}")

    # ------------------------------------------------------------------
    # 3. Optimise the index with CSV (Algorithm 2).
    # ------------------------------------------------------------------
    before = index.key_levels(keys)
    baseline = LippIndex.build(keys)  # untouched copy for comparison
    report = apply_csv(adapter_for(index), CsvConfig(alpha=0.1))
    after = index.key_levels(keys)

    moved = keys[after < before]
    print(f"\nCSV: rebuilt {report.nodes_rebuilt}/{report.nodes_examined} subtrees, "
          f"promoted {moved.size} keys in {report.preprocessing_seconds:.2f}s")
    print(f"  keys per level now: {keys_per_level(index, keys)}")

    if moved.size:
        sample = moved[:: max(1, moved.size // 500)]
        slow = profile_queries(baseline, sample)
        fast = profile_queries(index, sample)
        print(
            f"  promoted-key query cost: {slow.avg_simulated_ns:.0f} ns → "
            f"{fast.avg_simulated_ns:.0f} ns "
            f"({100 * (slow.avg_simulated_ns - fast.avg_simulated_ns) / slow.avg_simulated_ns:.1f}% faster)"
        )

    # Correctness never changes: every key still resolves.  One
    # lookup_many call checks the whole key set through the batch
    # query engine (no per-key Python loop).
    batch = index.lookup_many(keys)
    assert batch.hit_rate == 1.0 and np.array_equal(batch.values, keys)
    print(
        f"\nall {batch.n_queries} lookups verified in one batch "
        f"(avg {batch.levels.mean():.2f} levels) — done"
    )


if __name__ == "__main__":
    main()
