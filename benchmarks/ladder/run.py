"""The layer ladder: four workloads, every metric by name, one command.

    python benchmarks/ladder/run.py --seed 1
        every workload, untraced then traced; every metric with its unit
    python benchmarks/ladder/run.py --workload http_lookup --seed 1 \\
            --seconds 15 --trace 0
        one workload the way the benchmark driver calls it

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer
ones; no end-to-end number ever comes from a traced run.  The exit
code is non-zero on a wrong answer, a lost acknowledged write, a
failed or refused operation, or a child process that outlived its
workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

import paths  # puts src/ on sys.path; must precede the rest

if not (paths.SRC / "repro").is_dir():
    sys.exit(f"ladder: no program to measure at {paths.SRC}/repro; "
             "run from a checkout of the repository")

import layers
import procs
from inputs import REFERENCE_SECONDS, Config
from workloads import WORKLOADS, Outcome, Run

INJECTIONS = ("wrong_answer", "lost_write")


def load_catalog() -> dict:
    return json.loads(paths.BENCHMARK_JSON.read_text())


def run_one(name: str, traced: bool, cfg: Config, seed: int,
            children: procs.Children, inject: str | None,
            trace_dir: str | None) -> Outcome:
    """One workload in one scratch directory that is gone afterwards."""
    scratch = children.open_scratch(
        paths.SCRATCH_ROOT / f"run-{os.getpid()}-{name}-{int(traced)}")
    try:
        run = Run(cfg, seed, scratch, children, inject)
        if traced:
            outcome = layers.run_traced(name, run, trace_dir)
        else:
            outcome = WORKLOADS[name].run(run)
    finally:
        gc.unfreeze()  # undo workloads.settle() for whoever imported us
        children.stop_all()
    survivors = children.survivors()
    if survivors:
        outcome.problems.append(f"processes outlived the workload: {survivors}")
    if scratch.exists():
        outcome.problems.append(f"scratch directory {scratch} was not removed")
    return outcome


def report(name: str, traced: bool, outcome: Outcome, catalog: dict) -> dict:
    """Print every metric by name with its unit; returns the result row."""
    listed = catalog["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    missing = [m for m in units if m not in outcome.metrics]
    if missing:
        outcome.problems.append(f"metrics not measured: {missing}")
    label = f"{name}[{'traced' if traced else 'untraced'}]"
    metrics = {}
    for metric, unit in units.items():
        if metric in outcome.metrics:
            value = float(outcome.metrics[metric])
            metrics[metric] = {"value": value, "unit": unit}
            print(f"{label} {metric} = {value:.6g} {unit}")
    for extra, (value, unit) in sorted(outcome.extras.items()):
        print(f"{label} ({extra} = {value:.6g} {unit})")
    print(f"{label} operations: {outcome.attempted} attempted, {outcome.failed} failed")
    for problem in outcome.problems:
        print(f"{label} PROBLEM: {problem}")
    return {
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }


def execute(names: list[str], modes: list[bool], cfg: Config, seed: int,
            children: procs.Children, inject: str | None = None,
            trace_dir: str | None = None, out: str | None = None) -> dict:
    """Run every (workload, traced?) pair; returns the final result row."""
    catalog = load_catalog()
    rows = []
    for name in names:
        for traced in modes:
            started = time.perf_counter()
            outcome = run_one(name, traced, cfg, seed, children, inject, trace_dir)
            row = report(name, traced, outcome, catalog)
            print(f"{name}[{'traced' if traced else 'untraced'}] "
                  f"took {time.perf_counter() - started:.1f} s", flush=True)
            rows.append((name, row))
            if out:
                with open(out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({
                        "workload": name, "trace": int(traced), "seed": seed,
                        "nproc": os.cpu_count(), **row,
                        "extras": {k: v for k, (v, _unit) in outcome.extras.items()},
                    }) + "\n")
    if len(rows) == 1:
        return rows[0][1]
    return {
        "correct": all(row["correct"] for _, row in rows),
        "attempted": sum(row["attempted"] for _, row in rows),
        "failed": sum(row["failed"] for _, row in rows),
        "metrics": {f"{name}/{metric}": entry
                    for name, row in rows for metric, entry in row["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: all four, untraced and traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS,
                        help="sizes the fixed per-pass operation counts so that the "
                             "passes measure for about this long on the reference box")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: traced run, per-layer metrics")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="append one JSON line per workload run (for compare.py)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="keep trace-<workload>.jsonl here (it is otherwise "
                             "removed with the scratch directory)")
    parser.add_argument("--inject", choices=INJECTIONS, default=None,
                        help="test only: make the run fail in a known way")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else (
        [False] if args.workload else [False, True])
    children = procs.Children()
    children.install_handlers()
    final = execute(names, modes, Config.for_seconds(args.seconds), args.seed,
                    children, args.inject, args.trace_dir, args.out)
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
