"""Algorithm 1's outputs, pinned bit for bit.

``algorithm1_golden.json`` holds, for ``smooth_keys`` at alpha 0.1 on
the four datasets (one exact-path slice and one float-path slice each)
and for one ``poison_keys`` run, the sha256 of the inserted points
(int64) followed by the loss trace (float64), the number of points, and
for smoothing the two work counters the run pushes
(``smooth_gap_segments_total`` / ``smooth_candidate_evals_total``).  A
change that alters any of them changed Algorithm 1's output.

The file was recorded before the greedy scan read an incremental gap
table.  Re-record it only for a change meant to alter the output::

    PYTHONPATH=src python tests/core/test_algorithm1_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.poisoning import poison_keys
from repro.core.smoothing import smooth_keys
from repro.datasets import generate
from repro.obs.metrics import MetricsRegistry, scoped_registry

GOLDEN = Path(__file__).with_name("algorithm1_golden.json")
DATASETS = ("osm", "genome", "facebook", "covid")
COUNTERS = ("smooth_gap_segments_total", "smooth_candidate_evals_total")


def _key_sets() -> dict[str, np.ndarray]:
    """Per dataset: the first 1,500 of 4,000 keys (the exact int64
    path), and the last 600 stretched to a span near 2^62 (the float
    path)."""
    out = {}
    for name in DATASETS:
        keys = generate(name, 4_000, 1)
        out[f"{name}/exact"] = keys[:1_500]
        tail = keys[-600:] - keys[-600]
        out[f"{name}/float"] = tail * (2**62 // int(tail[-1]))
    return out


def _digest(points: list[int], trace: list[float]) -> str:
    h = hashlib.sha256(np.asarray(points, dtype=np.int64).tobytes())
    h.update(np.asarray(trace, dtype=np.float64).tobytes())
    return h.hexdigest()


def _run(case: str) -> dict:
    if case == "poison":
        result = poison_keys(_key_sets()["genome/exact"][:400], budget=30)
        return {"sha256": _digest(result.poison_points, result.loss_trace),
                "points": len(result.poison_points)}
    with scoped_registry(MetricsRegistry(enabled=True)) as reg:
        result = smooth_keys(_key_sets()[case], alpha=0.1)
    counters = reg.counters()
    return {"sha256": _digest(result.virtual_points, result.loss_trace),
            "points": result.n_virtual,
            **{name: counters[name] for name in COUNTERS}}


CASES = [*_key_sets(), "poison"]


@pytest.mark.parametrize("case", CASES)
def test_algorithm1_output_is_pinned(case):
    assert _run(case) == json.loads(GOLDEN.read_text())[case]


def test_float_slices_take_the_float_path():
    for case, keys in _key_sets().items():
        span = int(keys[-1]) - int(keys[0])
        assert ((keys.size + 1) * span >= 2**62) == case.endswith("/float")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: _run(case) for case in CASES}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
