"""``DurableStore``: one data directory of bases, runs, and a manifest.

This is the execution engine behind the package docstring's LSM
shape.  A store owns one directory:

* per-shard **base** snapshots (``base-s<shard>-g<gen>.npz``),
* sorted delta **runs** flushed from write buffers
  (``run-g<gen>-s<shard>.npz``),
* the committed ``MANIFEST.json`` naming exactly which of those files
  are live.

Every mutation follows the same discipline: write new immutable
files, commit a new manifest generation referencing them, *then*
delete whatever the commit superseded.  Opening a directory therefore
needs no journal replay — load the manifest, sweep unreferenced files
(half-written flushes, compaction leftovers), done.

The store is deliberately ignorant of the serving layer: it moves
``(keys, values)`` int64 arrays and builds bare index objects through
the families' ``build`` / ``bulk_insert_many`` ingest paths; a base
that records CSV's rebuilds hands the record to ``build``
(:class:`~repro.core.csv_algorithm.RecordedRebuilds`), which lays the
smoothed index out in one pass.
``IndexService.snapshot`` / ``open_snapshot`` own the mapping between
a live service and a store.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..core.csv_algorithm import RecordedRebuilds, check_decisions
from ..core.exceptions import IndexStateError
from ..obs.metrics import MetricsRegistry, get_registry
from .compaction import CompactionPlan, CompactionStrategy
from .faults import crashpoint
from .manifest import (
    MANIFEST_NAME,
    Manifest,
    RunMeta,
    commit_manifest,
    load_manifest,
)
from .runs import read_base_file, read_run_file, sorted_unique_run, write_run_file

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ..indexes.base import LearnedIndex

__all__ = ["DurableStore"]


def _run_stats(keys: np.ndarray) -> tuple[int, int, int]:
    """(n_keys, min_key, max_key) with -1 sentinels for empty."""
    if keys.size == 0:
        return 0, -1, -1
    return int(keys.size), int(keys[0]), int(keys[-1])


class DurableStore:
    """One durable data directory (see module docstring).

    All public methods are thread-safe under one reentrant lock, so
    the store never depends on its caller being single-threaded.

    Args:
        data_dir: directory to own (created if missing).
        metrics: registry for flush/compaction instrumentation;
            defaults to the process-global one (disabled ⇒ free).
    """

    def __init__(
        self, data_dir: str | Path, metrics: MetricsRegistry | None = None
    ):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._metrics = metrics if metrics is not None else get_registry()
        self._lock = threading.RLock()
        self._manifest = load_manifest(self.data_dir)
        self.sweep_orphans()
        self._publish_gauges()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def manifest(self) -> Manifest | None:
        """The committed manifest (None before :meth:`initialize`)."""
        with self._lock:
            return self._manifest

    @property
    def generation(self) -> int:
        """The committed generation (0 before :meth:`initialize`)."""
        with self._lock:
            return 0 if self._manifest is None else self._manifest.generation

    def is_initialized(self) -> bool:
        """Whether the directory holds a committed manifest."""
        return self.manifest is not None

    def runs_outstanding(self) -> int:
        """Delta runs not yet folded into a base, across all shards."""
        manifest = self.manifest
        return 0 if manifest is None else manifest.runs_outstanding()

    def _require_manifest(self) -> Manifest:
        if self._manifest is None:
            raise IndexStateError(
                f"store at {self.data_dir} is not initialized "
                "(no MANIFEST.json; call initialize() first)"
            )
        return self._manifest

    def _publish_gauges(self) -> None:
        if not self._metrics.enabled:
            return
        self._metrics.gauge("store_generation").set(self.generation)
        self._metrics.gauge("store_runs_outstanding").set(self.runs_outstanding())

    # ------------------------------------------------------------------
    # Initialise: first full snapshot
    # ------------------------------------------------------------------
    def initialize(
        self,
        family: str,
        boundaries: Sequence[int],
        alphas: Sequence[float | None],
        shard_arrays: Sequence[tuple[np.ndarray, np.ndarray]],
        csv: Sequence[np.ndarray | None] | None = None,
    ) -> Manifest:
        """Commit generation 1: one base snapshot per shard.

        *shard_arrays* holds each shard's sorted-unique
        ``(keys, values)`` pair (empty arrays for an empty shard);
        *csv*, one entry per shard, the rebuilds CSV made on an index
        built from that pair (:meth:`~repro.core.csv_algorithm.
        CsvReport.decisions`; None where the shard was not smoothed),
        which the base file records for :meth:`build_shard` to build from.
        Re-initialising an already-committed directory is an error —
        open it instead, or point the service at a fresh directory.
        """
        with self._lock:
            if self._manifest is not None:
                raise IndexStateError(
                    f"store at {self.data_dir} is already initialized "
                    f"(generation {self._manifest.generation})"
                )
            artefacts = []
            decisions = [None] * len(shard_arrays) if csv is None else csv
            for shard, ((keys, values), record) in enumerate(
                zip(shard_arrays, decisions, strict=True)
            ):
                keys, values = sorted_unique_run(keys, values)
                name = f"base-s{shard:04d}-g{1:08d}.npz"
                checksum, size = write_run_file(self.data_dir, name, keys, values, record)
                n, lo, hi = _run_stats(keys)
                artefacts.append(
                    RunMeta(
                        name=name,
                        kind="base",
                        shard=shard,
                        generation=1,
                        n_keys=n,
                        min_key=lo,
                        max_key=hi,
                        checksum=checksum,
                        size_bytes=size,
                    )
                )
            manifest = Manifest(
                generation=1,
                family=str(family),
                n_shards=len(shard_arrays),
                boundaries=tuple(int(b) for b in boundaries),
                alphas=tuple(alphas),
                artefacts=tuple(artefacts),
                updated_ts=time.time(),
            )
            self._manifest = commit_manifest(self.data_dir, manifest)
            self._publish_gauges()
            return self._manifest

    # ------------------------------------------------------------------
    # Flush: write buffers become immutable runs
    # ------------------------------------------------------------------
    def append_runs(
        self, batches: Mapping[int, tuple[np.ndarray, np.ndarray]]
    ) -> int:
        """Freeze per-shard write batches into runs; returns the new gen.

        One call is one atomic commit: every batch's run file lands
        first, then a single manifest generation references them all.
        Empty batches are skipped; an all-empty mapping commits
        nothing and returns the current generation.
        """
        started = time.perf_counter()
        with self._lock:
            manifest = self._require_manifest()
            generation = manifest.generation + 1
            artefacts = []
            flushed_keys = 0
            for shard in sorted(batches):
                keys, values = sorted_unique_run(*batches[shard])
                if keys.size == 0:
                    continue
                if not 0 <= shard < manifest.n_shards:
                    raise IndexStateError(
                        f"flush for unknown shard {shard} "
                        f"(store has {manifest.n_shards})"
                    )
                name = f"run-g{generation:08d}-s{shard:04d}.npz"
                checksum, size = write_run_file(self.data_dir, name, keys, values)
                n, lo, hi = _run_stats(keys)
                flushed_keys += n
                artefacts.append(
                    RunMeta(
                        name=name,
                        kind="run",
                        shard=shard,
                        generation=generation,
                        n_keys=n,
                        min_key=lo,
                        max_key=hi,
                        checksum=checksum,
                        size_bytes=size,
                    )
                )
            if not artefacts:
                return manifest.generation
            crashpoint("flush.before_commit")
            self._manifest = commit_manifest(
                self.data_dir, manifest.with_artefacts(add=tuple(artefacts))
            )
            crashpoint("flush.after_commit")
            if self._metrics.enabled:
                self._metrics.counter("store_flushes_total").inc()
                self._metrics.counter("store_flushed_keys_total").inc(flushed_keys)
                self._metrics.histogram("store_flush_seconds").observe(
                    time.perf_counter() - started
                )
                self._publish_gauges()
            return self._manifest.generation

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(
        self, strategy: CompactionStrategy, shard: int | None = None
    ) -> int:
        """Plan with *strategy* and execute; returns plans executed.

        Each plan is its own commit (write merged file → commit
        manifest → delete superseded inputs), so a crash between plans
        loses at most the not-yet-committed one and never corrupts
        the committed state.
        """
        executed = 0
        with self._lock:
            manifest = self._require_manifest()
            for plan in strategy.plan(manifest):
                if shard is not None and plan.shard != shard:
                    continue
                self._execute_plan(plan)
                executed += 1
        return executed

    def _execute_plan(self, plan: CompactionPlan) -> None:
        started = time.perf_counter()
        manifest = self._require_manifest()
        generation = manifest.generation + 1
        # Merge inputs oldest-to-newest so later runs win duplicates.
        parts_k = []
        parts_v = []
        for meta in sorted(plan.inputs, key=lambda m: (m.kind != "base", m.generation)):
            k, v = read_run_file(self.data_dir, meta.name, meta.checksum)
            parts_k.append(k)
            parts_v.append(v)
        keys, values = sorted_unique_run(
            np.concatenate(parts_k) if parts_k else np.empty(0, np.int64),
            np.concatenate(parts_v) if parts_v else np.empty(0, np.int64),
        )
        if plan.output_kind == "base":
            name = f"base-s{plan.shard:04d}-g{generation:08d}.npz"
        else:
            name = f"run-g{generation:08d}-s{plan.shard:04d}.npz"
        checksum, size = write_run_file(self.data_dir, name, keys, values)
        crashpoint("compact.after_write")
        n, lo, hi = _run_stats(keys)
        # The merged run replaces its inputs but must sort *before*
        # any younger surviving run, so it inherits the oldest input
        # generation rather than taking the commit's.
        out_generation = (
            generation
            if plan.output_kind == "base"
            else min(m.generation for m in plan.inputs)
        )
        meta = RunMeta(
            name=name,
            kind=plan.output_kind,
            shard=plan.shard,
            generation=out_generation,
            n_keys=n,
            min_key=lo,
            max_key=hi,
            checksum=checksum,
            size_bytes=size,
        )
        self._manifest = commit_manifest(
            self.data_dir,
            manifest.with_artefacts(
                add=(meta,), remove_names=set(plan.input_names)
            ),
        )
        crashpoint("compact.after_commit")
        for stale in plan.input_names:
            (self.data_dir / stale).unlink(missing_ok=True)
        if self._metrics.enabled:
            self._metrics.counter(
                "store_compactions_total", output=plan.output_kind
            ).inc()
            self._metrics.counter("store_compacted_runs_total").inc(
                len(plan.inputs)
            )
            self._metrics.histogram("store_compaction_seconds").observe(
                time.perf_counter() - started
            )
            self._publish_gauges()

    # ------------------------------------------------------------------
    # Reads: arrays and indexes
    # ------------------------------------------------------------------
    def load_shard_arrays(self, shard: int) -> tuple[np.ndarray, np.ndarray]:
        """The shard's merged ``(keys, values)`` — base + runs, last wins."""
        with self._lock:
            manifest = self._require_manifest()
            parts_k = []
            parts_v = []
            base = manifest.base_for(shard)
            stack = ((base,) if base is not None else ()) + manifest.runs_for(shard)
            for meta in stack:
                k, v = read_run_file(self.data_dir, meta.name, meta.checksum)
                parts_k.append(k)
                parts_v.append(v)
        if not parts_k:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        return sorted_unique_run(np.concatenate(parts_k), np.concatenate(parts_v))

    def build_shard(
        self, shard: int, family_cls: "type[LearnedIndex]"
    ) -> "tuple[LearnedIndex | None, bool]":
        """Rebuild one shard's index: base ``build`` + per-run bulk ingest.

        This is the recovery half of the LSM contract: the base
        snapshot bulk-loads through the family's ``build`` and every
        outstanding run replays through ``bulk_insert_many`` — the
        same vectorised ingest path live merges use — in commit
        order, so duplicates resolve exactly as they did in memory.
        A base that records CSV's rebuilds (``csv``) and has no run
        on top is built with the record (:class:`~repro.core.
        csv_algorithm.RecordedRebuilds`): the index is then the
        smoothed one its build made, laid out once, without running
        Algorithm 1.  Returns the index (None for a shard with no keys
        at all, mirroring :func:`repro.serving.partitioner.
        build_shard_indexes`) and whether the record built it — if
        not, smoothing it is the caller's.  Each call is one
        ``store_build_shard_seconds{recorded=…}`` observation.
        """
        started = time.perf_counter()
        with self._lock:
            manifest = self._require_manifest()
            base = manifest.base_for(shard)
            runs = manifest.runs_for(shard)
            keys, values, csv = (
                read_base_file(self.data_dir, base.name, base.checksum)
                if base is not None
                else (np.empty(0, np.int64), np.empty(0, np.int64), None)
            )
            run_arrays = [
                read_run_file(self.data_dir, m.name, m.checksum) for m in runs
            ]
        recorded = bool(keys.size) and csv is not None and not run_arrays
        record = RecordedRebuilds(csv, keys, base.name) if recorded else None
        index = family_cls.build(keys, values, record=record) if keys.size else None
        for rk, rv in run_arrays:
            if rk.size == 0:
                continue
            if index is None:
                index = family_cls.build(rk, rv)
            else:
                index.bulk_insert_many(rk, rv)
        if self._metrics.enabled:
            self._metrics.histogram(
                "store_build_shard_seconds", recorded=str(recorded).lower()
            ).observe(time.perf_counter() - started)
        return index, recorded

    # ------------------------------------------------------------------
    # Hygiene
    # ------------------------------------------------------------------
    def sweep_orphans(self) -> list[str]:
        """Delete files the manifest does not reference; returns names.

        Run on open: ``.tmp`` stragglers from an interrupted write,
        run files whose commit never landed, and compaction inputs
        whose post-commit deletion was cut short are all unreferenced
        and safe to drop.
        """
        with self._lock:
            live = (
                self._manifest.file_names() if self._manifest is not None else set()
            )
            removed = []
            for path in sorted(self.data_dir.iterdir()):
                if not path.is_file() or path.name == MANIFEST_NAME:
                    continue
                if path.name.endswith(".tmp") or (
                    path.suffix == ".npz" and path.name not in live
                ):
                    path.unlink(missing_ok=True)
                    removed.append(path.name)
            return removed

    def verify(self) -> int:
        """Re-read and checksum every live artefact; returns the count.

        A base's ``csv`` record is checked against its keys too (shape,
        dtype, anchors: :func:`~repro.core.csv_algorithm.
        check_decisions`) without building an index.  Raises
        :class:`~repro.store.runs.StoreCorruptionError` on the first
        mismatch — the operator drill in ``docs/OPERATIONS.md`` runs
        this after restoring a data directory from backup.
        """
        with self._lock:
            manifest = self._require_manifest()
            for meta in manifest.artefacts:
                keys, __, csv = read_base_file(self.data_dir, meta.name, meta.checksum)
                if csv is not None:
                    check_decisions(csv, keys, source=meta.name)
            return len(manifest.artefacts)
