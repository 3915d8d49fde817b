"""`IndexService`: the write-buffered serving facade.

Read path (per batch, all vectorised):

1. **Routing** — the whole batch goes down the
   :class:`~repro.serving.router.ShardRouter` once; with nothing
   buffered anywhere, the router's arrays are the answer.
2. **Write buffers** — every shard's unmerged writes live in a
   memtable, and the memtables in shard order are one sorted array
   (shards partition the key space), probed once for the batch.  Any
   query in a shard with a non-empty buffer pays that shard's
   sorted-probe charge on top of its routed steps; a buffered hit
   takes the buffer's value at levels 0 with the charge alone, as if
   the shard had never been asked.

Write path (single driver: one writer at a time, every step on the
caller's thread): ``insert_many`` lands in the per-shard memtables
(last write wins); with a store attached, a shard whose unflushed
writes reach ``flush_threshold`` freezes them into a run; and when a
shard's staleness ``buffered / stored`` crosses the threshold the
memtable is flushed, folded with the shard's stored pairs, the shard
built anew from the fold and smoothed with its own α, and the fold
written as the shard's base with CSV's record — all before
``insert_many`` returns, so merge timing (and with it the ``levels`` /
``search_steps`` / buffered-hit telemetry) is a function of the write
history alone.

One ledger (telemetry): :class:`ServiceStats` plus one int64 count per
``[shard, levels, search_steps]`` — what a read *observed*, the
paper's own measure — each written at exactly one site per event and
never priced on the way in.  Simulated ns (Eq. 22) are derived from
it when :meth:`IndexService.health_report` or the metrics registry
asks; the registry pulls (``MetricsRegistry.register_source``), the
service pushes nothing.

With no writes buffered the service is cost-transparent: a K=1
service is bit-identical to the bare index, and any-K gathers are
bit-identical to per-key routing (the acceptance parity tests in
``tests/serving/``).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.cost_model import CostConstants
from ..core.csv_algorithm import CsvConfig, apply_csv
from ..core.exceptions import IndexStateError, InvalidKeysError
from ..indexes import CSV_FAMILIES, adapter_for, family_class
from ..indexes.base import (
    BatchQueryStats,
    LearnedIndex,
    _as_batch_kv,
    _as_query_array,
    dedupe_last_wins,
    range_slice,
)
from ..obs.health import (
    IMBALANCE_WARN,
    HealthReport,
    ShardHealth,
    price_reads,
    priced_classes,
    shard_status,
)
from ..obs.metrics import Histogram, MetricsRegistry, get_registry, metric_key
from .partitioner import build_shard_indexes, plan_shards
from ..store import MANIFEST_NAME, DurableStore, StoreCorruptionError
from .router import ShardRouter

__all__ = ["IndexService", "ServiceStats"]

#: Every int64 key: a range over it is a shard's whole contents.
_INT64_SPAN = (int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max))


@dataclass
class ServiceStats:
    """Mutable operation counters of one service instance, each
    written at one site (exported as ``service_<field>_total``)."""

    n_lookups: int = 0
    n_inserts: int = 0
    buffer_hits: int = 0
    merges: int = 0
    merged_keys: int = 0
    resmoothed_shards: int = 0
    flushes: int = 0
    flushed_keys: int = 0
    #: 0: a merge rebases its shard, and nothing compacts.  Kept while
    #: the benchmark ladder reads it from ``/v1/stats``.
    compactions: int = 0


class _Memtable:
    """One shard's buffered writes, as three parallel int64 arrays.

    ``keys`` (sorted, unique), their latest ``values``, and for each
    the number of the write batch that last set it.  Every mutation
    builds new arrays and swaps them — with the newest batch number —
    as one tuple, so a reader takes a consistent view with one
    attribute load and no lock.

    The batch numbers make the memtable its own dirty set.  A flush or
    a merge works from a snapshot and afterwards advances a watermark
    to the newest batch that snapshot saw: entries numbered at or
    below ``flushed`` are already in a run on disk, and a merge drops
    the entries numbered at or below its mark.  A write — or a rewrite
    of a covered key — that lands between a snapshot and its
    completion carries a later number and survives both.
    """

    def __init__(self) -> None:
        empty = np.empty(0, dtype=np.int64)
        #: (keys, values, batch numbers, newest batch number)
        self._view = (empty, empty, empty, 0)
        self._flushed = 0

    def restore(self, runs: Iterable[tuple[np.ndarray, np.ndarray]]) -> None:
        """Put back runs already on disk (a reopen), oldest first: each
        is one batch, and all of them are flushed."""
        for keys, values in runs:
            self.put_run(keys, values)
        self._flushed = self._view[3]

    def put_run(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Absorb one write batch (batch order, last write wins)."""
        old_keys, old_vals, old_seqs, newest = self._view
        newest += 1
        keys = np.concatenate([old_keys, keys])
        vals = np.concatenate([old_vals, values])
        seqs = np.concatenate(
            [old_seqs, np.full(values.size, newest, dtype=np.int64)]
        )
        keys, keep = dedupe_last_wins(keys, np.arange(keys.size))
        self._view = (keys, vals[keep], seqs[keep], newest)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every buffered (key, value), sorted by key."""
        return self._view[:2]

    def snapshot(self) -> tuple[np.ndarray, np.ndarray, int]:
        """What a merge folds in, and the mark to drop it by."""
        keys, vals, __, newest = self._view
        return keys, vals, newest

    def drop_through(self, mark: int) -> None:
        """A merge covering batches ``<= mark`` completed."""
        keys, vals, seqs, newest = self._view
        later = seqs > mark
        self._view = (keys[later], vals[later], seqs[later], newest)

    def unflushed(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The entries in no run on disk yet, and the mark to flush by."""
        keys, vals, seqs, newest = self._view
        dirty = seqs > self._flushed
        return keys[dirty], vals[dirty], newest

    def mark_flushed(self, mark: int) -> None:
        """A run (or base) covering batches ``<= mark`` was committed."""
        self._flushed = max(self._flushed, mark)

    def n_unflushed(self) -> int:
        """Unique keys in no run on disk yet (what ``flush_threshold`` counts)."""
        return int(np.count_nonzero(self._view[2] > self._flushed))

    def __len__(self) -> int:
        return int(self._view[0].size)


class IndexService:
    """Sharded, write-buffered serving facade over one index family."""

    def __init__(
        self,
        router: ShardRouter,
        family: str,
        alphas: Sequence[float | None],
        staleness_threshold: float = 0.1,
        metrics: MetricsRegistry | None = None,
        store: DurableStore | None = None,
        flush_threshold: int = 0,
    ):
        if store is not None:
            manifest = store.manifest
            if manifest is None:
                raise IndexStateError(
                    f"store at {store.data_dir} is not initialized "
                    "(IndexService.build(store=) writes its first generation)"
                )
            if manifest.family != family or manifest.n_shards != router.n_shards:
                raise IndexStateError(
                    f"store at {store.data_dir} holds {manifest.family}/"
                    f"{manifest.n_shards} shards; this service is "
                    f"{family}/{router.n_shards}"
                )
        self.router = router
        self.family = family
        #: Per-shard smoothing α (None = not smoothed); the router is
        #: the record of everything else about the shards.
        self.alphas = tuple(alphas)
        #: The Eq. 22 prices the ledger is read at (the defaults, as
        #: every smoothing call's adapter uses).
        self.constants = CostConstants()
        self.staleness_threshold = float(staleness_threshold)
        self.stats = ServiceStats()
        self._buffers = [_Memtable() for _ in range(router.n_shards)]
        #: The rest of the ledger: reads served so far, counted by
        #: ``[shard, levels, search_steps]`` (grown on demand).  Reads
        #: may run concurrently (the front door's reader threads), so
        #: the read-side books are written under one lock per batch.
        self._observed = np.zeros((router.n_shards, 0, 0), dtype=np.int64)
        self._ledger_lock = threading.Lock()
        self.metrics = metrics if metrics is not None else get_registry()
        self.metrics.register_source(
            "service",
            counters=self._stat_counters,
            gauges=self._shard_gauges,
            histograms=self._priced_histograms,
        )
        self._h_merge_s = self.metrics.histogram("service_merge_seconds")
        self._closed = False
        #: Durability (see ``repro.store``): *store* already holds these
        #: shards (``build(store=)`` wrote them, or ``open_snapshot``
        #: read them).  Each memtable knows which of its entries are not
        #: yet in a run on disk; merges flush first, then write their
        #: fold as the shard's base.  ``flush_threshold > 0`` (with a
        #: store) freezes a shard's unflushed writes into a run once
        #: that many accumulate.
        self._store = store
        self._flush_threshold = int(flush_threshold) if store is not None else 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        keys: np.ndarray | list,
        family: str = "lipp",
        n_shards: int = 4,
        values: np.ndarray | list | None = None,
        alpha: float | Sequence[float | None] | None = None,
        staleness_threshold: float = 0.1,
        metrics: MetricsRegistry | None = None,
        store: DurableStore | None = None,
        flush_threshold: int = 0,
    ) -> "IndexService":
        """Partition → smooth → build → route, in one call.

        *family* is one of :data:`~repro.indexes.CSV_FAMILIES`; a
        read-only baseline raises :class:`InvalidKeysError`.  With
        *store*, the plan's shard contents become its generation-1 base
        files, each recording the rebuilds CSV made on its shard for
        :meth:`open_snapshot` to build the smoothed shard from.  An
        initialised directory is refused, untouched — reopen it with
        :meth:`open_snapshot`.
        """
        plan = plan_shards(keys, n_shards, values=values, alpha=alpha)
        shards, reports = build_shard_indexes(plan, family)
        if store is not None:
            store.initialize(
                family,
                [int(b) for b in plan.boundaries],
                plan.alphas,
                list(zip(plan.shard_keys, plan.shard_values)),
                [None if report is None else report.decisions() for report in reports],
            )
        return cls(
            ShardRouter(shards, plan.boundaries),
            family,
            plan.alphas,
            staleness_threshold=staleness_threshold,
            metrics=metrics,
            store=store,
            flush_threshold=flush_threshold,
        )

    @classmethod
    def open_snapshot(
        cls,
        store: DurableStore | str,
        staleness_threshold: float = 0.1,
        metrics: MetricsRegistry | None = None,
        flush_threshold: int = 0,
        compaction: object = None,
    ) -> "IndexService":
        """Recover a service from a durable data directory.

        The inverse of :meth:`snapshot`: the manifest supplies the
        family, shard boundaries and per-shard α, and
        :meth:`DurableStore.build_shard` builds each shard from its
        base with the base's record of CSV's rebuilds, so Algorithm 1
        does not run (a base without one, from before merges rebased
        their shard, is smoothed here).  Each shard's runs go back
        into its write buffer, flushed, as the live service held them;
        a buffer restored past the staleness threshold (a crash
        between a merge's flush and its rebase, or an older
        directory) is merged now.  A manifest naming a family that is
        not served raises :class:`StoreCorruptionError`.  The store
        stays attached.  *compaction* is accepted and ignored: a merge
        leaves no run to compact, and the benchmark ladder's
        in-process stack still passes it.
        """
        if not isinstance(store, DurableStore):
            store = DurableStore(store, metrics=metrics)
        manifest = store.manifest
        if manifest is None:
            raise IndexStateError(
                f"no snapshot to open at {store.data_dir} "
                "(MANIFEST.json missing; IndexService.build(store=) writes one)"
            )
        try:
            family_cls = family_class(manifest.family, CSV_FAMILIES)
        except InvalidKeysError as exc:
            raise StoreCorruptionError(
                f"{store.data_dir / MANIFEST_NAME}: manifest field 'service.family': {exc}"
            ) from None
        shards: list[LearnedIndex | None] = []
        for shard_no, alpha in enumerate(manifest.alphas):
            shard, recorded = store.build_shard(shard_no, family_cls)
            if shard is not None and not recorded and alpha is not None and alpha > 0.0:
                apply_csv(adapter_for(shard), CsvConfig(alpha=alpha))
            shards.append(shard)
        service = cls(
            ShardRouter(shards, np.asarray(manifest.boundaries, dtype=np.int64)),
            manifest.family,
            manifest.alphas,
            staleness_threshold=staleness_threshold,
            metrics=metrics,
            store=store,
            flush_threshold=flush_threshold,
        )
        for shard_no, buffer in enumerate(service._buffers):
            buffer.restore(store.load_runs(shard_no))
            if service._due(shard_no)[1]:
                service._merge_shard(shard_no)
        return service

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.router.n_shards

    @property
    def n_keys(self) -> int:
        """Stored keys: merged shard contents plus net-new buffered keys."""
        bkeys, __, __ = self._buffered()
        if not bkeys.size:
            return self.router.n_keys
        # The router's sweep is untracked: a poll leaves SALI's access
        # statistics as the reads left them.
        stored = self.router.lookup_many(bkeys).gathered.found
        return self.router.n_keys + int(np.count_nonzero(~stored))

    def size_bytes(self) -> int:
        """Aggregate modelled storage footprint of the shard indexes."""
        return self.router.size_bytes()

    def buffered_counts(self) -> tuple[int, ...]:
        """Unmerged write-buffer entries per shard."""
        return tuple(len(b) for b in self._buffers)

    def _buffered(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Every buffered ``(key, value)`` as one key-sorted pair of
        arrays — the memtables in shard order, as shards partition the
        key space — and each shard's entry count."""
        views = [buffer.arrays() for buffer in self._buffers]
        sizes = [k.size for k, __ in views]
        if not any(sizes):
            return *views[0], sizes  # nothing buffered: no copy to make
        keys, values = (np.concatenate(part) for part in zip(*views))
        return keys, values, sizes

    # ------------------------------------------------------------------
    # Durability (repro.store)
    # ------------------------------------------------------------------
    def _require_store(self) -> DurableStore:
        if self._store is None:
            raise IndexStateError(
                "no durable store attached (pass store= to build() or open_snapshot())"
            )
        return self._store

    @property
    def store(self) -> DurableStore | None:
        """The attached durable store (None when serving memory-only)."""
        return self._store

    def durable_generation(self) -> int:
        """The store's committed generation (0 without a store)."""
        return 0 if self._store is None else self._store.generation

    def snapshot(self) -> int:
        """Commit the full service state durably; returns the generation.

        Every non-empty write buffer is merged (:meth:`flush`), which
        writes its shard's fold as a base recording CSV's rebuilds, so
        the directory holds no run and reopens without Algorithm 1.
        """
        store = self._require_store()
        self.flush()
        return store.generation

    def flush_durable(self) -> int:
        """Freeze every shard's unflushed writes into runs; returns gen.

        One call commits one manifest generation covering all shards
        with anything unflushed (a no-op returns the current
        generation).  Flushed entries stay in the write buffers — the
        read overlay is untouched; only their *durability* changes.
        """
        self._require_store()
        return self._flush_shards(range(self.n_shards))

    def _flush_shards(self, shard_nos: Iterable[int]) -> int:
        """Commit one generation holding *shard_nos*' unflushed writes.

        The per-shard helper behind :meth:`flush_durable` (every
        shard), the flush threshold and flush-on-merge (one shard).
        """
        store = self._store
        batches = {}
        marks = {}
        for shard_no in shard_nos:
            keys, vals, mark = self._buffers[shard_no].unflushed()
            if keys.size:
                batches[shard_no] = (keys, vals)
                marks[shard_no] = mark
        if not batches:
            return store.generation
        generation = store.append_runs(batches)
        self.stats.flushes += 1
        self.stats.flushed_keys += sum(k.size for k, __ in batches.values())
        # Only now is the snapshot durable; a write that landed during
        # the commit is numbered past its mark and stays unflushed.
        for shard_no, mark in marks.items():
            self._buffers[shard_no].mark_flushed(mark)
        return generation

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def lookup_many(self, keys: np.ndarray | list) -> BatchQueryStats:
        """Batched lookups: one routed pass, then the buffer overlay."""
        q = _as_query_array(keys)
        routed = self.router.lookup_many(q)
        batch, shard_ids = routed.gathered, routed.shard_ids
        bkeys, bvals, sizes = self._buffered()
        if not bkeys.size:
            # Nothing buffered: the router's arrays are the answer.
            self._record_reads(shard_ids, batch)
            return batch
        # Every query into a shard with a non-empty buffer pays its
        # memtable probe, ceil(log2(n + 1)) steps over n entries: n's bit
        # length.  A hit is answered from the buffer alone (levels 0, the
        # probe its whole cost).  The router's arrays are this batch's own.
        charge = np.array([n.bit_length() for n in sizes])[shard_ids]
        pos = np.minimum(np.searchsorted(bkeys, q), bkeys.size - 1)
        hit = np.flatnonzero(bkeys[pos] == q)
        steps = batch.search_steps
        steps += charge
        steps[hit] = charge[hit]
        batch.levels[hit] = 0
        batch.found[hit] = True
        batch.values[hit] = bvals[pos[hit]]
        self._record_reads(shard_ids, batch, int(hit.size))
        return batch

    def lookup(self, key: int) -> int | None:
        """Single-key convenience wrapper over :meth:`lookup_many`."""
        batch = self.lookup_many(np.asarray([int(key)], dtype=np.int64))
        return int(batch.values[0]) if batch.found[0] else None

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def insert_many(
        self,
        keys: np.ndarray | list,
        values: np.ndarray | list | None = None,
    ) -> None:
        """Absorb a write batch into the per-shard buffers.

        Buffered writes are immediately visible to reads (the overlay
        in :meth:`lookup_many`); shards whose staleness crosses the
        threshold are merged + re-smoothed.
        """
        arr, vals = _as_batch_kv(keys, values)
        if arr.size == 0:
            return
        self.stats.n_inserts += int(arr.size)
        __, order, offsets = self.router.group_by_shard(arr)
        for shard_no in range(self.n_shards):
            lo, hi = int(offsets[shard_no]), int(offsets[shard_no + 1])
            if lo == hi:
                continue
            run = order[lo:hi]
            buffer = self._buffers[shard_no]
            buffer.put_run(arr[run], vals[run])
            flush_due, merge_due = self._due(shard_no)
            if flush_due:
                self._flush_shards((shard_no,))
            if merge_due:
                self._merge_shard(shard_no)

    def stays_buffered(self, keys: np.ndarray) -> bool:
        """Whether :meth:`insert_many` of *keys* only buffers them: no
        shard, counting each key as new, reaches a flush or merge."""
        counts = np.bincount(self.router.shard_of(keys), minlength=self.n_shards)
        return not any(any(self._due(shard_no, int(n))) for shard_no, n in enumerate(counts) if n)

    def _due(self, shard_no: int, more: int = 0) -> tuple[bool, bool]:
        """``(flush, merge)``: due once the shard's memtable grows by
        *more* keys?  The one threshold rule, shared by both callers."""
        flush = 0 < self._flush_threshold <= self._buffers[shard_no].n_unflushed() + more
        return flush, self._staleness(shard_no, more) > self.staleness_threshold

    def _staleness(self, shard_no: int, more: int = 0) -> float:
        buffered = len(self._buffers[shard_no]) + more
        shard = self.router.shards[shard_no]
        stored = shard.n_keys if shard is not None else 0
        return buffered / max(stored, 1)

    def _merge_shard(self, shard_no: int) -> None:
        """Merge one shard's buffer: build the shard anew and smooth it.

        Runs on the inserting caller's thread, start to finish.  With
        a store the buffer is flushed first, so a write is durable at
        the same point whether or not the merge completes.  The
        shard's stored pairs and the buffer fold into one sorted array
        (last write wins), the family builds the shard from it, and
        CSV smooths it with the shard's α.  With a store, the fold and
        CSV's record then become the shard's base
        (:meth:`DurableStore.rebase`), so the base on disk is the
        index served.  Then the router publishes the new shard.
        """
        buffer = self._buffers[shard_no]
        if not len(buffer):
            return
        start = time.perf_counter()
        if self._store is not None:
            self._flush_shards((shard_no,))
        bkeys, bvals, mark = buffer.snapshot()
        keys, values = self._fold(shard_no, bkeys, bvals)
        merged = family_class(self.family).build(keys, values)
        report = None
        alpha = self.alphas[shard_no]
        if alpha is not None and alpha > 0.0:
            report = apply_csv(adapter_for(merged), CsvConfig(alpha=alpha))
            self.stats.resmoothed_shards += 1
        if self._store is not None:
            self._store.rebase(
                shard_no, keys, values, None if report is None else report.decisions()
            )
        # Publication: the router compiles the new shard here, under
        # the writer, not on the first query after it.
        self.router.replace_shard(shard_no, merged)
        self.stats.merges += 1
        self.stats.merged_keys += int(bkeys.size)
        # Drop exactly what was merged: a write that landed mid-merge
        # is numbered past the mark and stays buffered for the next one.
        buffer.drop_through(mark)
        # A real instrument, not a pulled one: the ladder reads its sum.
        if self.metrics.enabled:
            self._h_merge_s.observe(time.perf_counter() - start)

    def _fold(
        self, shard_no: int, bkeys: np.ndarray, bvals: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The shard's stored pairs with *bkeys* written over them, sorted."""
        shard = self.router.shards[shard_no]
        if shard is None:
            return bkeys, bvals
        keys, values = shard.range_query(*_INT64_SPAN)
        return dedupe_last_wins(np.concatenate([keys, bkeys]), np.concatenate([values, bvals]))

    def flush(self) -> None:
        """Merge every non-empty buffer now."""
        for shard_no, buffer in enumerate(self._buffers):
            if len(buffer):
                self._merge_shard(shard_no)

    # ------------------------------------------------------------------
    # Range path
    # ------------------------------------------------------------------
    def range_arrays(self, low: int, high: int) -> tuple[np.ndarray, np.ndarray]:
        """Gathered range scan overlaid with in-range buffered writes,
        as ``(keys, values)`` int64 arrays in key order."""
        keys, values = self.router.range_query(low, high)
        bkeys, bvals, __ = self._buffered()
        if not bkeys.size:
            return keys, values  # nothing buffered: the router's arrays
        sl = range_slice(bkeys, low, high)
        # Buffered writes come after the stored pairs: they win.
        return dedupe_last_wins(
            np.concatenate([keys, bkeys[sl]]), np.concatenate([values, bvals[sl]])
        )

    def range_query(self, low: int, high: int) -> list[tuple[int, int]]:
        """:meth:`range_arrays` as a list of ``(key, value)`` pairs."""
        keys, values = self.range_arrays(low, high)
        return list(zip(keys.tolist(), values.tolist()))

    # ------------------------------------------------------------------
    # The ledger: what reads observed, and what is derived from it
    # ------------------------------------------------------------------
    def _record_reads(
        self, shard_ids: np.ndarray, batch: BatchQueryStats, buffer_hits: int = 0
    ) -> None:
        """The one site a served read batch is counted at: its
        ``(shard, levels, steps)`` cells raveled, one ``bincount``, one
        add into the ledger.  Nothing is priced here."""
        if not shard_ids.size:
            return
        where = (shard_ids, batch.levels, batch.search_steps)
        with self._ledger_lock:
            self.stats.n_lookups += shard_ids.size
            self.stats.buffer_hits += buffer_hits
            observed = self._observed
            try:
                cells = np.ravel_multi_index(where, observed.shape)
            except ValueError:  # deeper or longer than any read so far: grow
                __, n_levels, n_steps = observed.shape
                more_levels = max(int(batch.levels.max()) + 1 - n_levels, 0)
                more_steps = max(int(batch.search_steps.max()) + 1 - n_steps, 0)
                observed = self._observed = np.pad(
                    observed, ((0, 0), (0, more_levels), (0, more_steps))
                )
                cells = np.ravel_multi_index(where, observed.shape)
            observed += np.bincount(cells, minlength=observed.size).reshape(observed.shape)

    def observed_reads(self) -> np.ndarray:
        """Reads served so far, counted by ``[shard, levels,
        search_steps]`` (a copy) — the observation every simulated-ns
        figure is priced from."""
        with self._ledger_lock:
            return self._observed.copy()

    def _stat_counters(self) -> dict[str, int]:
        """:class:`ServiceStats` under its exported names."""
        return {
            f"service_{name.removeprefix('n_')}_total": value
            for name, value in dataclasses.asdict(self.stats).items()
        }

    def _shard_gauges(self) -> dict[str, float]:
        out = {}
        for shard_no, buffer in enumerate(self._buffers):
            labels = {"shard": shard_no}
            out[metric_key("shard_staleness", labels)] = self._staleness(shard_no)
            out[metric_key("shard_buffered_keys", labels)] = float(len(buffer))
        return out

    def _priced_histograms(self) -> dict[str, Histogram]:
        """``service_lookup_sim_ns{shard=…}``: each observed class at
        its Eq. 22 price — a model output, not a clock."""
        out = {}
        for shard_no, observed in enumerate(self.observed_reads()):
            hist = Histogram()
            __, counts, prices = priced_classes(observed, self.constants)
            for price, n in zip(prices.tolist(), counts.tolist()):
                hist.observe(price, n)
            out[metric_key("service_lookup_sim_ns", {"shard": shard_no})] = hist
        return out

    def health_report(self) -> HealthReport:
        """Service-wide health: staleness and imbalance signals (each
        defined in :mod:`repro.obs.health`).

        Per shard, and over all of them in the ``total`` row: key and
        buffer volume, the observed average level, and the ledger's
        reads priced by :func:`~repro.obs.health.price_reads`.
        """
        observed = self.observed_reads()
        stored = [s.n_keys if s is not None else 0 for s in self.router.shards]
        buffered = self.buffered_counts()
        shards = [
            self._health_row(i, stored[i], buffered[i], observed[i])
            for i in range(self.n_shards)
        ]
        shard_means = [row.avg_ns for row in shards if row.queries]
        imbalance = (
            max(shard_means) / (sum(shard_means) / len(shard_means))
            if shard_means
            else 0.0
        )
        status = "ok"
        if any(s.status != "ok" for s in shards) or imbalance > IMBALANCE_WARN:
            status = "warn"
        total = self._health_row(-1, sum(stored), sum(buffered), observed.sum(axis=0))
        return HealthReport(
            shards=tuple(shards),
            total=dataclasses.replace(total, status=status),
            merges=self.stats.merges,
            buffer_hit_rate=self.stats.buffer_hits / max(self.stats.n_lookups, 1),
            cost_imbalance=imbalance,
            status=status,
        )

    def _health_row(
        self, shard_no: int, n_keys: int, buffered: int, observed: np.ndarray
    ) -> ShardHealth:
        staleness = buffered / max(n_keys, 1)
        return ShardHealth(
            shard=shard_no,
            n_keys=n_keys,
            buffered=buffered,
            staleness=staleness,
            status=shard_status(staleness, self.staleness_threshold),
            **price_reads(observed, self.constants),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Make buffered writes durable.

        Idempotent.  With a store attached, whatever is still buffered
        becomes a durable run, so a clean shutdown never needs the
        HTTP op log to replay.  The service object stays usable for
        in-process work afterwards.
        """
        if self._closed:
            return
        self._closed = True
        if self._store is not None:
            self.flush_durable()

    def __enter__(self) -> "IndexService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
