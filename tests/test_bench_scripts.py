"""Import checks for the paper-reproduction scripts.

Every ``benchmarks/*.py`` file must at least import cleanly on every
test run, so a refactor that breaks a bench surfaces immediately
instead of at paper-reproduction time.  (``benchmarks/ladder/`` has
its own suite, ``python -m pytest benchmarks/ladder``.)
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
BENCH_SCRIPTS = sorted(p for p in BENCH_DIR.glob("*.py") if p.name != "conftest.py")


@pytest.mark.parametrize("script", BENCH_SCRIPTS, ids=lambda p: p.stem)
def test_bench_script_imports(script):
    """Each bench module must import without executing its workload."""
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))  # mirrors benchmarks/conftest.py
    spec = importlib.util.spec_from_file_location(f"bench_import_{script.stem}", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
