"""Library-wide convention checks: documentation and API stability.

These guard the "production-quality" bar: every public item is
documented, the package exports stay importable, module-level
``__all__`` lists match reality, no public name is left without a
caller, and the operator docs list exactly the flags ``serve`` takes,
the fields ``/v1/health`` reports and the metrics a live server
exports.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]

PUBLIC_MODULES = [
    name
    for __, name, __is_pkg in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not any(part.startswith("_") for part in name.split(".")[1:])
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_entries_exist(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if obj.__module__ != module_name:
                continue  # re-export; documented at its home module
            assert obj.__doc__, f"{module_name}.{name} lacks a docstring"
            if inspect.isclass(obj):
                for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
                    if meth_name.startswith("_"):
                        continue
                    if meth.__qualname__.split(".")[0] != obj.__name__:
                        continue  # inherited
                    # getdoc() follows the MRO, so a documented base
                    # method covers its overrides.
                    assert inspect.getdoc(getattr(obj, meth_name)), (
                        f"{module_name}.{name}.{meth_name} lacks a docstring"
                    )


def test_top_level_all_is_sorted_and_unique():
    exported = [n for n in repro.__all__ if n != "__version__"]
    assert len(set(exported)) == len(exported)


def test_index_registry_matches_classes():
    from repro.indexes import INDEX_FAMILIES

    for name, cls in INDEX_FAMILIES.items():
        assert cls.name == name, f"registry key {name} != class name {cls.name}"


#: Public names no code under src/, benchmarks/ or examples/ refers to
#: (a docstring or comment naming one does not count), and why each stays.  An entry that gains a caller, or whose name is
#: deleted, must leave this list (the scan below checks both).
UNREFERENCED_ON_PURPOSE = {
    # Library API re-exported from its package and exercised by tests/:
    # the paper's building blocks a reader of the library would look for.
    "rebuild_cost_delta": "Eq. 22 as one call (core API)",
    "calibrate_from_samples": "fits CostConstants to a machine (core API)",
    "loss_derivative": "Section 4.2's derivative, the filter's reference (core API)",
    "fit_quadratic": "QuadraticModel's fit (core API)",
    "empirical_cdf": "a key set's CDF, subsampled for plotting (datasets API)",
    "cardinality_series": "the Fig. 9 cardinality ladder (datasets API)",
    "load_smoothing_result": "inverse of io.save_smoothing_result",
    "save_keys": "inverse of io.load_keys (the npz layout run files share)",
    "hierarchy_loss": "Eq. 2, the loss of a whole hierarchy (core API)",
    "LearnedIndex.verify_against": "self-check every family inherits",
    "LippIndex.empty_slot_fraction": "gap-availability report beside node_levels",
    "SaliIndex.flatten_hot_subtrees": "SALI's adaptation step; its caller is the user's workload loop",
    "SaliIndex.flattened_nodes": "introspection beside flatten_hot_subtrees",
    "GapInsertionLayout.lookup_steps": "per-key query cost under the GI layout",
    "AlexDataNode.from_positions": "lays keys out at caller-given ranks (data-node API)",
    # The CSV families' ordered walks: the oracle tests hold range_query
    # and bulk merges to (the range path itself reads arrays instead).
    "LippIndex.iter_keys": "ordered walk of a LIPP/SALI tree (test oracle)",
    "AlexIndex.iter_keys": "ordered walk of an ALEX tree (test oracle)",
    # Reference implementations tests compare against.
    "exact_refit_model": "Fraction-exact oracle of the fast refit",
    "exact_refit_loss": "Fraction-exact oracle of the fast loss",
    "SegmentStats.evaluate": "scalar reference of evaluate_many (one candidate, full refit)",
    # Operator / test-harness surface.
    "clear_cache": "drops the dataset cache between tests",
    "JsonFormatter.format": "logging.Formatter override; the logging module calls it",
    "PlainFormatter.format": "logging.Formatter override; the logging module calls it",
    "Histogram.bucket_counts": "read side of the fixed bucket layout (the instrument tests' oracle)",
    "DurableStore.load_shard_arrays": "a shard's logical content without building an index",
    "DurableStore.verify": "the restore drill in docs/OPERATIONS.md; the crash suite's integrity check",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _public_definitions() -> list[tuple[str, str]]:
    """(file, qualified name) of every public def / class / method."""
    found = []

    def visit(body, owner, where):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    found.append((where, owner + node.name))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, owner + node.name + ".", where)

    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        visit(ast.parse(path.read_text()).body, "", str(path.relative_to(REPO_ROOT)))
    return found


def _name_uses() -> Counter:
    """Every name the code under src/, benchmarks/, examples/ refers to:
    ``Name`` and ``Attribute`` nodes, plus identifier-shaped string
    constants (``getattr`` targets, names wrapped by attribute).  Prose —
    docstrings, comments — is not code; neither are a definition's own
    name, an import or an ``__all__`` entry."""
    uses: Counter = Counter()
    for top in ("src", "benchmarks", "examples"):
        for path in (REPO_ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text())
            exported = {
                id(const)
                for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for const in ast.walk(node.value)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    uses[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    uses[node.attr] += 1
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and _IDENTIFIER.match(node.value)
                    and id(node) not in exported
                ):
                    uses[node.value] += 1
    return uses


def test_every_public_name_has_a_caller():
    """A public function, method or class is referenced somewhere in
    src/, benchmarks/ or examples/ beyond its definition, ``__all__``
    and re-exports — or is in :data:`UNREFERENCED_ON_PURPOSE`."""
    uses = _name_uses()
    unreferenced = {
        qual: where for where, qual in _public_definitions() if not uses[qual.rsplit(".", 1)[-1]]
    }
    dead = {q: w for q, w in unreferenced.items() if q not in UNREFERENCED_ON_PURPOSE}
    assert not dead, f"public names nothing refers to (delete or allowlist with a reason): {dead}"
    stale = sorted(set(UNREFERENCED_ON_PURPOSE) - set(unreferenced))
    assert not stale, f"allowlisted names that are referenced now, or gone: {stale}"


def test_operations_flag_table_matches_serve_parser():
    """docs/OPERATIONS.md's flag reference lists exactly the flags
    ``repro serve`` defines, so a deleted knob cannot live on in it."""
    from repro.cli import build_parser

    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    defined = {
        flag
        for action in subparsers.choices["serve"]._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    text = (REPO_ROOT / "docs" / "OPERATIONS.md").read_text()
    section = text.split("### Flag reference", 1)[1].split("\n## ", 1)[0]
    rows = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    documented = set(re.findall(r"`(--[a-z][a-z-]*)", rows))
    assert documented == defined, (
        f"undocumented: {sorted(defined - documented)}; "
        f"documented but gone: {sorted(documented - defined)}"
    )


def test_operations_health_fields_match_the_report():
    """docs/OPERATIONS.md's ``/v1/health`` field table lists exactly the
    fields of a :class:`ShardHealth` row and of a :class:`HealthReport`,
    plus the front door's ``admission`` — a deleted field cannot live on
    in it, and a new one cannot ship without a row."""
    import dataclasses

    from repro.obs.health import HealthReport, ShardHealth

    text = (REPO_ROOT / "docs" / "OPERATIONS.md").read_text()
    section = text.split("### `/v1/health` fields", 1)[1].split("\n#", 1)[0]
    first_cells = [
        line.split("|")[1] for line in section.splitlines() if line.startswith("| `")
    ]
    documented = {name for cell in first_cells for name in re.findall(r"`([a-z0-9_]+)`", cell)}
    expected = {
        field.name for cls in (ShardHealth, HealthReport) for field in dataclasses.fields(cls)
    } | {"admission"}
    assert documented == expected, (
        f"undocumented: {sorted(expected - documented)}; "
        f"documented but gone: {sorted(documented - expected)}"
    )


#: Metric families the catalog in docs/OPERATIONS.md covers.
CATALOG_PREFIXES = ("http", "store", "service", "shard", "router", "flat", "bulk", "smooth")

#: Catalogued names the live run below cannot reach, and why.
CATALOGUED_BUT_UNREACHED = {
    "flat_stale_retries_total": "counts a retry after a tree edit that bypassed invalidate_flat",
}


def test_operations_metric_catalog_matches_a_live_front_door(tmp_path):
    """docs/OPERATIONS.md's metric catalog lists exactly the names of
    :data:`CATALOG_PREFIXES` a front door with both stores exports once
    it has built (smoothed), reopened, read, written, flushed, merged,
    compacted and synced, plus :data:`CATALOGUED_BUT_UNREACHED` — a renamed or
    deleted metric cannot live on in the table, and a new one cannot
    ship without a row."""
    import numpy as np

    from repro.obs.metrics import MetricsRegistry, scoped_registry
    from repro.server import HttpIndexClient, RuntimeStore, ServerThread
    from repro.serving import IndexService
    from repro.store import DurableStore

    # Squares leave free values inside every node for smoothing to use.
    keys = np.arange(3_000, dtype=np.int64) ** 2
    registry = MetricsRegistry(enabled=True)
    with scoped_registry(registry):
        IndexService.build(
            keys, family="lipp", n_shards=2, alpha=0.1, store=DurableStore(tmp_path / "data")
        )
        # The front door serves the reopened snapshot: each shard built
        # from its base's CSV record.
        service = IndexService.open_snapshot(
            tmp_path / "data", staleness_threshold=0.05, flush_threshold=100,
            compaction="tiered:2",
        )
        with ServerThread(
            service, registry=registry, store=RuntimeStore(tmp_path / "runtime.db")
        ) as srv, HttpIndexClient(srv.host, srv.port) as client:
            client.lookup(keys[:10].tolist())
            # The first batch is over a quarter of its shard (a bulk
            # rebuild), the later ones are not (gapped merges).
            # Each batch crosses the flush threshold, so each insert
            # also syncs the op log.
            for start in range(0, 1_200, 400):
                client.insert((int(keys[-1]) + 1 + np.arange(start, start + 400)).tolist())
            views = (registry.counters(), registry.gauges(), registry.histograms())
        service.close()
    exported = {
        key.split("{")[0]
        for view in views
        for key in view
        if key.startswith(tuple(f"{p}_" for p in CATALOG_PREFIXES))
    }
    text = (REPO_ROOT / "docs" / "OPERATIONS.md").read_text()
    section = text.split("## Monitoring", 1)[1].split("\n## ", 1)[0]
    rows = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    documented = set(re.findall(rf"`((?:{'|'.join(CATALOG_PREFIXES)})_[a-z_]+)", rows))
    expected = exported | set(CATALOGUED_BUT_UNREACHED)
    assert documented == expected, (
        f"exported but not in the catalog: {sorted(expected - documented)}; "
        f"catalogued but not exported: {sorted(documented - expected)}"
    )
