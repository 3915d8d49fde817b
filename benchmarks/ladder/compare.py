"""Compare two sets of ladder runs: ``compare.py A.jsonl B.jsonl``.

Each file holds the lines ``run.py --out`` appended — several runs per
workload.  A is the base (the parent commit, or the first of two sets
of the same commit), B the change.  For every (end-to-end metric,
workload) pair the metric's own direction and bound from
``BENCHMARK.json`` decide one row:

* ``ok``         B's median is not worse than A's by more than the bound;
* ``worse``      it is;
* ``unresolved`` the run-to-run spread (interquartile range over the
  median, the wider of the two sides) exceeds the bound, so the medians
  cannot tell — unless every run of B is better (``ok``) or worse
  (``worse``) than every run of A.

Every ratio is B over A.  Counts that must repeat exactly (traced
runs, same seed) are compared too.  Exit code 1 on any ``worse`` row
or differing exact count.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from paths import BENCHMARK_JSON

#: Per-layer counts that depend only on the inputs, never on timing.
EXACT_COUNTS = (
    "serving.service.merges", "store.flushes", "store.compactions",
    "store.generation", "core.virtual_points", "core.keys_promoted",
    "indexes.levels_per_lookup",
)


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    mid_a, mid_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (mid_b - mid_a) / abs(mid_a) if mid_a else 0.0
    if max(spread(a), spread(b)) <= bound:
        return "worse" if worse_by > bound else "ok"
    if all(sign * y < sign * x for x in a for y in b):
        return "ok"
    if worse_by > bound and all(sign * y > sign * x for x in a for y in b):
        return "worse"
    return "unresolved"


def end_to_end_values(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    values = defaultdict(list)
    for record in records:
        if record["trace"] == 0:
            for metric, entry in record["metrics"].items():
                values[record["workload"], metric].append(entry["value"])
    return values


def exact_counts(records: list[dict]) -> dict[tuple[str, int, str], set[float]]:
    counts = defaultdict(set)
    for record in records:
        if record["trace"] == 1:
            for metric in EXACT_COUNTS:
                if metric in record["metrics"]:
                    counts[record["workload"], record["seed"], metric].add(
                        record["metrics"][metric]["value"])
    return counts


def compare(records_a: list[dict], records_b: list[dict], catalog: dict) -> list[dict]:
    a_values, b_values = end_to_end_values(records_a), end_to_end_values(records_b)
    rows = []
    for workload in [w["name"] for w in catalog["workloads"]]:
        for metric in catalog["end_to_end"]:
            key = (workload, metric["name"])
            a, b = a_values.get(key), b_values.get(key)
            if not a or not b:
                continue
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "a": statistics.median(a), "b": statistics.median(b),
                "ratio": statistics.median(b) / statistics.median(a),
                "spread_a": spread(a), "spread_b": spread(b),
                "bound": metric["bound"], "runs": (len(a), len(b)),
                "verdict": verdict(a, b, metric["better"], metric["bound"]),
            })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    records_a, records_b = load(argv[0]), load(argv[1])
    rows = compare(records_a, records_b, json.loads(BENCHMARK_JSON.read_text()))
    print(f"{'workload':<20}{'metric':<20}{'A median':>14}{'B median':>14}"
          f"{'B/A':>8}{'spread A':>10}{'spread B':>10}{'bound':>7}  verdict (runs)")
    for r in rows:
        print(f"{r['workload']:<20}{r['metric']:<20}{r['a']:>14.6g}{r['b']:>14.6g}"
              f"{r['ratio']:>8.3f}{r['spread_a']:>10.3f}{r['spread_b']:>10.3f}"
              f"{r['bound']:>7.2f}  {r['verdict']} ({r['runs'][0]}/{r['runs'][1]}) "
              f"[{r['unit']}, base A]")
    differing = []
    counts_a, counts_b = exact_counts(records_a), exact_counts(records_b)
    for key in sorted(set(counts_a) & set(counts_b)):
        both = counts_a[key] | counts_b[key]
        if len(both) > 1:
            differing.append((key, sorted(both)))
    compared = len(set(counts_a) & set(counts_b))
    print(f"exact counts: {compared} compared, {len(differing)} differ")
    for (workload, seed, metric), seen in differing:
        print(f"  {workload} seed {seed} {metric}: {seen}")
    worse = [r for r in rows if r["verdict"] == "worse"]
    return 1 if worse or differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
