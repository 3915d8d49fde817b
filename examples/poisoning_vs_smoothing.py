"""Poisoning vs smoothing: the same machinery, opposite directions.

Run with::

    python examples/poisoning_vs_smoothing.py

Section 2.3 of the paper roots CDF smoothing in poisoning attacks on
learned indexes (Kornaropoulos et al.): poisoning inserts points that
*maximise* the model's SSE, smoothing inserts points that *minimise*
it.  This example runs both from the same key set with the same
budget and shows the mirrored effect — first on the loss, then on an
actual LIPP index built over each point set.
"""

from __future__ import annotations

import numpy as np

from repro import poison_keys, smooth_keys
from repro.datasets import generate
from repro.indexes import LippIndex


def describe(name: str, points: np.ndarray) -> str:
    index = LippIndex.build(points)
    deep = int((index.key_levels(points) >= 3).sum())
    return (
        f"{name:<22} height {index.height()}  nodes {index.node_count():>5}  "
        f"keys at level>=3: {deep:>5}"
    )


def main() -> None:
    keys = generate("facebook", 5_000)
    budget = 500
    print(f"key set: facebook analogue, {keys.size} keys; budget {budget} points\n")

    smoothed = smooth_keys(keys, budget=budget)
    poisoned = poison_keys(keys, budget=budget)

    print("loss (SSE of the refitted linear model):")
    print(f"  original: {smoothed.original_loss:,.0f}")
    print(f"  smoothed: {smoothed.final_loss:,.0f} "
          f"({smoothed.loss_improvement_pct:+.1f}% improvement)")
    print(f"  poisoned: {poisoned.final_loss:,.0f} "
          f"({poisoned.loss_increase_pct:+.1f}% degradation)\n")

    print("effect on a LIPP index built over each point set:")
    print("  " + describe("original keys", keys))
    print("  " + describe("with smoothing points", smoothed.points))
    print("  " + describe("with poisoning points", poisoned.points))

    print(
        "\nSmoothing points straighten the CDF, so the index resolves more\n"
        "keys in shallow levels; poisoning points bend it, pushing keys\n"
        "into deeper conflict subtrees — the attack CSV runs in reverse."
    )


if __name__ == "__main__":
    main()
