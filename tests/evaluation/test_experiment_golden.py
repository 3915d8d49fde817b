"""The experiment drivers' deterministic columns, pinned.

``experiment_golden.json`` holds every column of
``run_csv_experiment`` (lipp, sali and alex on the four datasets, 4,000
keys, alpha 0.1), of ``run_level_query_times`` (lipp, the four
datasets, 4,000 keys) and of ``run_readwrite_experiment`` (lipp and
alex on osm, 4,000 keys, two batches) except the wall-clock ones:
``preprocessing_seconds`` and the insert seconds.  Floats are compared
exactly; the cost model is deterministic arithmetic.

The file was recorded before level snapshots became one array from the
batch sweep.  Re-record it only for a change meant to alter the
output::

    PYTHONPATH=src python tests/evaluation/test_experiment_golden.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.evaluation.runner import (
    run_csv_experiment,
    run_level_query_times,
    run_readwrite_experiment,
)

GOLDEN = Path(__file__).with_name("experiment_golden.json")
DATASETS = ("osm", "genome", "facebook", "covid")
N_KEYS = 4_000
ALPHA = 0.1
WALL_CLOCK = {"preprocessing_seconds", "enhanced_insert_seconds", "original_insert_seconds"}


def _columns(row) -> dict:
    return {
        name: value for name, value in dataclasses.asdict(row).items() if name not in WALL_CLOCK
    }


def _run(case: str):
    kind, family, dataset = case.split("/")
    if kind == "csv":
        return _columns(run_csv_experiment(family, dataset, n=N_KEYS, alpha=ALPHA))
    if kind == "levels":
        return [_columns(row) for row in run_level_query_times(family, dataset, n=N_KEYS)]
    observations = run_readwrite_experiment(family, dataset, n=N_KEYS, alpha=ALPHA, n_batches=2)
    return [_columns(obs) for obs in observations]


CASES = [
    *(f"csv/{family}/{ds}" for family in ("lipp", "sali", "alex") for ds in DATASETS),
    *(f"levels/lipp/{ds}" for ds in DATASETS),
    *(f"readwrite/{family}/osm" for family in ("lipp", "alex")),
]


@pytest.mark.parametrize("case", CASES)
def test_experiment_columns_are_pinned(case):
    assert _run(case) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: _run(case) for case in CASES}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
