"""Where the checkout's pieces are; importing this puts ``src/`` on
``sys.path`` so the benchmark runs from a bare checkout (no install,
no ``PYTHONPATH``)."""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Run scratch lives inside the checkout (the benchmark may write
#: nowhere else) and is git-ignored.
SCRATCH_ROOT = HERE / ".scratch"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
