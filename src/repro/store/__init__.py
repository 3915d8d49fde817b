"""Durable snapshots + LSM-style compaction for the serving layer.

The serving stack is memory-resident: shards rebuild from the dataset
at startup and absorbed writes live in write buffers.  This package
makes that state *durable* with the classic LSM shape, sized for the
repo's sorted-int64 world:

* a **flush** freezes a shard's write buffer into an immutable sorted
  run file (compressed ``.npz``, same ``keys``/``values`` layout as
  :func:`repro.io.save_keys`);
* a JSON **manifest** with a monotonic generation number and sha256
  checksums names exactly which bases and runs are live — every
  state change commits by write-temp-then-rename, so a ``kill -9``
  at any instant leaves a directory that reopens to the newest fully
  committed generation;
* a **compactor** (size-tiered or full sort-merge, pluggable) folds
  runs back down, and recovery replays outstanding runs through the
  served families' ``bulk_insert_many`` — the same vectorised ingest
  path live merges use.

``docs/PERSISTENCE.md`` specifies the on-disk format;
``docs/OPERATIONS.md`` covers the operator knobs and the
crash-recovery drill.
"""

from .compaction import (
    CompactionPlan,
    CompactionStrategy,
    SizeTieredStrategy,
    SortMergeStrategy,
    make_strategy,
)
from .faults import CRASH_ENV, crashpoint
from .manifest import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    Manifest,
    RunMeta,
    commit_manifest,
    load_manifest,
)
from .runs import (
    StoreCorruptionError,
    read_run_file,
    sorted_unique_run,
    write_run_file,
)
from .store import DurableStore

__all__ = [
    "CRASH_ENV",
    "CompactionPlan",
    "CompactionStrategy",
    "DurableStore",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "Manifest",
    "RunMeta",
    "SizeTieredStrategy",
    "SortMergeStrategy",
    "StoreCorruptionError",
    "commit_manifest",
    "crashpoint",
    "load_manifest",
    "make_strategy",
    "read_run_file",
    "sorted_unique_run",
    "write_run_file",
]
