"""Serving-layer benchmark: shard-scaling throughput and latency.

Measures the sharded :class:`~repro.serving.service.IndexService`
against the monolithic batch engine over a shard-count sweep — wall
clock lookups/s (routing overhead included), mixed read/write
workload throughput, and the simulated-ns latency the cost
model assigns — and merges the results into ``BENCH_perf.json`` under
the ``"serving"`` key (the smoothing/lookup/insert sections written by
``bench_perf_regression.py`` are preserved).

A second sweep, ``process_scaling``, runs the shared-memory process
executor over K shards/workers and records
``k4_over_k1_ratio`` — the K=4 over K=1 process-mode throughput
ratio, the dimensionless signal that process serving actually scales
past the GIL.  On a single-core runner the ratio hovers near or
below 1 (IPC overhead, no parallelism to win back); CI only floors
it on runners with 4+ cores.  Every process batch is asserted
bit-identical to the serial answer.

Run directly::

    python benchmarks/bench_serving.py            # full (n=20k)
    python benchmarks/bench_serving.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serving import ExecutorSpec, IndexService  # noqa: E402
from repro.workloads import run_service_workload  # noqa: E402

#: Families benched: the CSV flagship (lipp), the classical oracle
#: (btree) and the fastest static batch backend (pgm).
FAMILIES = ("lipp", "btree", "pgm")
SHARD_COUNTS = (1, 2, 4, 8)

#: Families and shard counts of the process-executor scaling sweep
#: (smaller: each K spawns K worker processes).
PROCESS_FAMILIES = ("lipp", "btree")
PROCESS_SHARD_COUNTS = (1, 2, 4)


def bench_family(
    family: str,
    keys: np.ndarray,
    queries: np.ndarray,
    n_ops: int,
    seed: int,
) -> dict:
    out = {}
    for k in SHARD_COUNTS:
        row: dict = {"n_shards": k}
        with IndexService.build(keys, family=family, n_shards=k) as service:
            start = time.perf_counter()
            batch = service.lookup_many(queries)
            wall = time.perf_counter() - start
            ns = batch.simulated_ns(service.constants)
            row["lookups_per_s"] = round(queries.size / wall, 1)
            row["avg_sim_ns"] = round(float(ns.mean()), 1)
            row["p99_sim_ns"] = round(float(np.percentile(ns, 99)), 1)
        with IndexService.build(
            keys, family=family, n_shards=k, staleness_threshold=0.2
        ) as service:
            report = run_service_workload(
                service, keys, n_ops=n_ops, read_fraction=0.9, seed=seed
            )
            row["mixed_ops_per_s"] = round(report.ops_per_second, 1)
            row["merges"] = service.stats.merges
        out[f"K{k}"] = row
    return out


def bench_process_family(
    family: str, keys: np.ndarray, queries: np.ndarray, repeats: int
) -> dict:
    """Process-executor throughput over a shard sweep, parity-checked.

    Serves each K with K worker processes over shared-memory shard
    views; the best of *repeats* timed passes per K smooths out
    worker warm-up.  Returns per-K rows plus the K=4/K=1 ratio.
    """
    out: dict = {}
    reference = None
    per_k: dict[int, float] = {}
    for k in PROCESS_SHARD_COUNTS:
        spec = ExecutorSpec(kind="process", n_workers=k)
        with IndexService.build(keys, family=family, n_shards=k,
                                executor=spec) as service:
            service.lookup_many(queries[:256])  # warm the IPC path
            best = 0.0
            for __ in range(repeats):
                start = time.perf_counter()
                batch = service.lookup_many(queries)
                wall = time.perf_counter() - start
                best = max(best, queries.size / wall if wall > 0 else 0.0)
            if reference is None:
                with IndexService.build(keys, family=family, n_shards=k) as ser:
                    reference = ser.lookup_many(queries)
            if not (
                np.array_equal(batch.found, reference.found)
                and np.array_equal(batch.values, reference.values)
            ):
                raise AssertionError(f"{family} K={k}: process batch diverged")
            per_k[k] = best
            out[f"K{k}"] = {
                "n_shards": k,
                "process_lookups_per_s": round(best, 1),
            }
    if 1 in per_k and 4 in per_k and per_k[1] > 0:
        out["k4_over_k1_ratio"] = round(per_k[4] / per_k[1], 3)
    return out


def run(quick: bool, out_path: Path, seed: int = 0) -> dict:
    n = 4_000 if quick else 20_000
    n_queries = 8_000 if quick else 40_000
    n_ops = 5_000 if quick else 30_000
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, n * 10_000, n))
    queries = rng.choice(keys, n_queries)

    process_repeats = 2 if quick else 3
    serving = {
        "config": {
            "quick": quick,
            "n": n,
            "n_queries": n_queries,
            "n_ops": n_ops,
            "shard_counts": list(SHARD_COUNTS),
            "process_shard_counts": list(PROCESS_SHARD_COUNTS),
            "cpu_count": os.cpu_count(),
            "seed": seed,
        },
        "scaling": {
            family: bench_family(family, keys, queries, n_ops, seed)
            for family in FAMILIES
        },
        "process_scaling": {
            family: bench_process_family(family, keys, queries, process_repeats)
            for family in PROCESS_FAMILIES
        },
    }

    report = {}
    if out_path.exists():
        report = json.loads(out_path.read_text())
    report["serving"] = serving
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    return serving


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_perf.json",
        help="JSON report to merge the serving section into",
    )
    args = parser.parse_args(argv)
    serving = run(args.quick, args.out, args.seed)
    for family, sweep in serving["scaling"].items():
        for label, row in sweep.items():
            print(
                f"{family:8s} {label:3s} lookups {row['lookups_per_s']:>12,.0f}/s  "
                f"mixed {row['mixed_ops_per_s']:>10,.0f} ops/s  "
                f"avg {row['avg_sim_ns']:>6.0f} sim-ns"
            )
    for family, sweep in serving["process_scaling"].items():
        for label, row in sweep.items():
            if not label.startswith("K"):
                continue
            print(
                f"{family:8s} {label:3s} process "
                f"{row['process_lookups_per_s']:>12,.0f}/s"
            )
        ratio = sweep.get("k4_over_k1_ratio")
        if ratio is not None:
            print(f"{family:8s} K4/K1 process scaling ratio {ratio:.2f}")
    print(f"wrote serving section to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
