"""Crash recovery: kill -9 at every named step, reopen, demand parity.

Each test launches a subprocess that runs a deterministic workload
with ``REPRO_STORE_CRASH`` armed immediately before its final
operation, so SIGKILL lands *inside* a flush, a compaction or a
rebase (a merge's fold written as a shard's new base).  The
parent then reopens the half-written directory and asserts bit-parity
— per-shard merged arrays and manifest generation — against an
uninterrupted twin stopped at the boundary the crash point implies:
points before the manifest commit recover to the state *without* the
final op, points after it to the state *with* it.  There is no third
outcome.

The hypothesis test pins the generalisation: for a random op
sequence, *every* prefix of completed generations (each committed
directory state, snapshotted via copytree) reopens cleanly, passes
``verify()``, and reads back the exact logical state it was
snapshotted with.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.store import DurableStore, make_strategy

from .conftest import FAMILY, logical_state

SRC = str(Path(__file__).resolve().parents[2] / "src")

# The same workload body runs in the crashing subprocess (via -c) and
# in-process for the uninterrupted twin — one source of truth.
WORKLOAD = """
import numpy as np
from repro.store import DurableStore, make_strategy

def batch(i, shard):
    rng = np.random.default_rng(100 + 10 * i + shard)
    lo = shard * 50_000
    keys = np.unique(rng.integers(lo, lo + 50_000, 60))
    return keys, keys * 10 + i

def run_workload(data_dir, n_flushes, compact, arm=None):
    import os
    store = DurableStore(data_dir)
    if not store.is_initialized():
        base0 = batch(0, 0)
        base1 = batch(0, 1)
        store.initialize(
            family={family!r}, boundaries=[50_000], alphas=[None, None],
            shard_arrays=[base0, base1],
        )
    for i in range(1, n_flushes + 1):
        if arm and arm[0] == "flush" and i == n_flushes:
            os.environ["REPRO_STORE_CRASH"] = arm[1]
        store.append_runs({{0: batch(i, 0), 1: batch(i, 1)}})
    if compact != "none":
        if arm and arm[0] == "compact":
            os.environ["REPRO_STORE_CRASH"] = arm[1]
        if compact == "rebase":
            store.rebase(0, *store.load_shard_arrays(0))
        else:
            store.compact(make_strategy(compact))
    return store
""".format(family=FAMILY)

_NS = {}
exec(WORKLOAD, _NS)
run_workload = _NS["run_workload"]


def crash_child(data_dir: Path, n_flushes: int, compact: str, arm) -> int:
    """Run the workload in a subprocess armed to die; returns returncode."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        + WORKLOAD
        + f"\nrun_workload({str(data_dir)!r}, {n_flushes}, {compact!r}, {tuple(arm)!r})\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, timeout=120
    )
    return proc.returncode


def parity(data_dir: Path, twin: DurableStore) -> None:
    recovered = DurableStore(data_dir)  # reopen sweeps orphans itself
    assert recovered.generation == twin.generation
    assert logical_state(recovered) == logical_state(twin)
    assert recovered.verify() == len(recovered.manifest.artefacts)
    on_disk = {p.name for p in Path(data_dir).glob("*")} - {"MANIFEST.json"}
    assert on_disk == recovered.manifest.file_names()  # no stragglers


# Crash points inside a flush, split by which side of the manifest
# commit they land on (the commit IS the os.replace of MANIFEST.json).
FLUSH_BEFORE_COMMIT = [
    "run.after_tmp", "run.after_rename",
    "flush.before_commit", "manifest.before_rename",
]
FLUSH_AFTER_COMMIT = ["manifest.after_rename", "flush.after_commit"]


class TestCrashMidFlush:
    @pytest.mark.parametrize("point", FLUSH_BEFORE_COMMIT)
    def test_pre_commit_crash_recovers_previous_generation(self, tmp_path, point):
        rc = crash_child(tmp_path / "crash", 3, "none", ("flush", point))
        assert rc == -9, f"expected SIGKILL at {point}, got rc={rc}"
        twin = run_workload(tmp_path / "twin", 2, "none")  # final flush lost
        parity(tmp_path / "crash", twin)

    @pytest.mark.parametrize("point", FLUSH_AFTER_COMMIT)
    def test_post_commit_crash_recovers_new_generation(self, tmp_path, point):
        rc = crash_child(tmp_path / "crash", 3, "none", ("flush", point))
        assert rc == -9
        twin = run_workload(tmp_path / "twin", 3, "none")  # final flush durable
        parity(tmp_path / "crash", twin)


class TestCrashMidCompaction:
    @pytest.mark.parametrize("point", ["compact.after_write", "manifest.before_rename"])
    def test_pre_commit_crash_leaves_inputs_live(self, tmp_path, point):
        rc = crash_child(tmp_path / "crash", 4, "sortmerge", ("compact", point))
        assert rc == -9
        twin = run_workload(tmp_path / "twin", 4, "none")  # compaction lost
        parity(tmp_path / "crash", twin)
        assert DurableStore(tmp_path / "crash").runs_outstanding() == 4 * 2

    @pytest.mark.parametrize(
        "point", ["manifest.after_rename", "compact.after_commit"]
    )
    def test_post_commit_crash_keeps_first_plan(self, tmp_path, point):
        # Each plan is its own commit, and the crash fires on the first
        # one (shard 0): its fold stands — even though the superseded
        # inputs were never unlinked — while shard 1's never ran.
        rc = crash_child(tmp_path / "crash", 4, "sortmerge", ("compact", point))
        assert rc == -9
        twin = run_workload(tmp_path / "twin", 4, "none")
        recovered = DurableStore(tmp_path / "crash")
        assert recovered.generation == twin.generation + 1
        assert logical_state(recovered) == logical_state(twin)
        assert recovered.verify() == len(recovered.manifest.artefacts)
        assert len(recovered.manifest.runs_for(0)) == 0  # fold committed
        assert len(recovered.manifest.runs_for(1)) == 4  # fold lost
        on_disk = {p.name for p in (tmp_path / "crash").glob("*")}
        assert on_disk - {"MANIFEST.json"} == recovered.manifest.file_names()

    def test_tiered_crash_mid_pass(self, tmp_path):
        # Tiered compaction of 4 equal-size runs per shard: dying after
        # the first plan's commit keeps that merge and loses the rest.
        rc = crash_child(tmp_path / "crash", 4, "tiered:2", ("compact", "compact.after_commit"))
        assert rc == -9
        recovered = DurableStore(tmp_path / "crash")
        twin = run_workload(tmp_path / "twin", 4, "none")
        assert logical_state(recovered) == logical_state(twin)
        assert recovered.verify() == len(recovered.manifest.artefacts)


# Crash points inside a rebase, split by the manifest commit.
REBASE_BEFORE_COMMIT = [
    "run.after_tmp", "run.after_rename", "rebase.after_write", "manifest.before_rename",
]
REBASE_AFTER_COMMIT = ["manifest.after_rename", "rebase.after_commit"]


class TestCrashMidRebase:
    @pytest.mark.parametrize("point", REBASE_BEFORE_COMMIT)
    def test_pre_commit_crash_leaves_base_and_runs_live(self, tmp_path, point):
        rc = crash_child(tmp_path / "crash", 4, "rebase", ("compact", point))
        assert rc == -9, f"expected SIGKILL at {point}, got rc={rc}"
        twin = run_workload(tmp_path / "twin", 4, "none")  # rebase lost
        parity(tmp_path / "crash", twin)
        assert DurableStore(tmp_path / "crash").runs_outstanding() == 4 * 2

    @pytest.mark.parametrize("point", REBASE_AFTER_COMMIT)
    def test_post_commit_crash_keeps_the_new_base(self, tmp_path, point):
        # The commit stands even though the superseded base and runs
        # were never unlinked: the reopen sweeps them.
        rc = crash_child(tmp_path / "crash", 4, "rebase", ("compact", point))
        assert rc == -9
        twin = run_workload(tmp_path / "twin", 4, "rebase")  # rebase durable
        parity(tmp_path / "crash", twin)
        recovered = DurableStore(tmp_path / "crash")
        assert len(recovered.manifest.runs_for(0)) == 0
        assert len(recovered.manifest.runs_for(1)) == 4


class TestUninterruptedControl:
    def test_workload_without_arming_just_runs(self, tmp_path):
        store = run_workload(tmp_path / "d", 3, "sortmerge")
        assert store.generation >= 4
        assert store.runs_outstanding() == 0


OPS = st.lists(
    st.sampled_from(["flush0", "flush1", "flushboth", "tiered", "sortmerge", "merge"]),
    min_size=1,
    max_size=8,
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=OPS)
def test_any_prefix_of_completed_generations_reopens_cleanly(ops):
    """Every committed directory state is a valid recovery target."""
    batch = _NS["batch"]
    with tempfile.TemporaryDirectory(prefix="store_prefix_") as root:
        root = Path(root)
        live = root / "live"
        store = run_workload(live, 0, "none")  # initialize only
        prefixes = []  # (snapshot_dir, expected generation, expected state)

        def snap():
            dst = root / f"gen-{store.generation:04d}-{len(prefixes)}"
            shutil.copytree(live, dst)
            prefixes.append((dst, store.generation, logical_state(store)))

        snap()
        for i, op in enumerate(ops, start=1):
            if op == "flush0":
                store.append_runs({0: batch(i, 0)})
            elif op == "flush1":
                store.append_runs({1: batch(i, 1)})
            elif op == "flushboth":
                store.append_runs({0: batch(i, 0), 1: batch(i, 1)})
            elif op == "merge":  # flush-on-merge, then the fold as the base
                store.append_runs({i % 2: batch(i, i % 2)})
                store.rebase(i % 2, *store.load_shard_arrays(i % 2))
            elif op == "tiered":
                store.compact(make_strategy("tiered:2"))
            else:
                store.compact(make_strategy("sortmerge"))
            snap()

        for snap_dir, generation, expected in prefixes:
            reopened = DurableStore(snap_dir)
            assert reopened.generation == generation
            assert reopened.verify() == len(reopened.manifest.artefacts)
            assert logical_state(reopened) == expected
