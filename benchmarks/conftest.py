"""Benchmark-suite configuration.

The paper's figure/table/ablation scripts are pytest files named
``bench_*.py``, which default collection (``test_*.py``) skips, so
name them: one with ``PYTHONPATH=src python -m pytest
benchmarks/bench_fig02_smoothing_example.py``, all with the shell glob
``benchmarks/bench_*.py``.  They need the ``benchmark`` fixture of
``pytest-benchmark`` (the ``bench`` extra in ``pyproject.toml``).  Each
test wraps its figure/table computation in ``benchmark.pedantic(...,
rounds=1)`` — the computation *is* the measured workload — and prints
plus persists the reproduced table under ``results/``.
"""

import sys
from pathlib import Path

# Make the sibling `_shared` module importable regardless of rootdir.
sys.path.insert(0, str(Path(__file__).resolve().parent))
