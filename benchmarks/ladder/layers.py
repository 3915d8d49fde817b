"""The traced runs: where each workload's time goes, layer by layer.

Every workload is replayed once against an in-process stack with the
public callables at each layer boundary wrapped by :class:`Tracer`
(:data:`BOUNDARIES`).  Per-layer metrics come from this run only and
end-to-end metrics never do; the same replay is first timed without
the wrappers, and the ratio of the two is ``trace.overhead_ratio``.

Three registries, all ``name -> callable`` (no if-chain per statistic):

* :data:`TRACED_RUNS` — workload name -> replay that fills a :class:`Traced`;
* :data:`RUNGS` — measurements that need their own small experiment
  (instrumentation on/off, the bare CSV families) -> rows of metrics;
* :data:`STATS` — per-layer metric name -> function of the spans and
  counts in a :class:`Traced`.  A layer a workload never enters reads 0.

Layer names are the module names under ``src/repro``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import inputs
import loadgen
import workloads
from tracing import Span, Tracer
from workloads import Outcome, Run

import repro.server.app as server_app
import repro.serving.partitioner as partitioner
import repro.serving.service as service_module
from repro.core.csv_algorithm import CsvConfig, apply_csv
from repro.indexes import INDEX_FAMILIES
from repro.indexes.adapters import adapter_for
from repro.indexes.lipp import LippIndex
from repro.obs.metrics import MetricsRegistry, scoped_registry
from repro.server import HttpIndexClient, RuntimeStore, ServerThread
from repro.server.admission import AdmissionController
from repro.serving import IndexService, ShardRouter
from repro.store import DurableStore

#: ``serve --http`` defaults, spelled out for the in-process stack.
FLUSH_THRESHOLD = 4096
COMPACTION = "tiered"
MAX_PENDING = 64
MAX_INFLIGHT = 2
TRACED_WARMUP = 50


def _csv_counts(report) -> dict:
    return {"virtual_points": report.virtual_points_inserted,
            "keys_promoted": report.keys_promoted,
            "nodes_rebuilt": report.nodes_rebuilt}


#: (owner, attribute, span name[, note]) — the layer boundaries.
BOUNDARIES = [
    (HttpIndexClient, "request", "loadgen.request"),
    (server_app, "parse_lookup_request", "server.app.parse"),
    (server_app, "parse_insert_request", "server.app.parse"),
    (AdmissionController, "run", "server.admission.run"),
    (RuntimeStore, "record_op", "server.runtime_store.record_op"),
    (IndexService, "lookup_many", "serving.service.lookup_many"),
    (IndexService, "insert_many", "serving.service.insert_many"),
    (IndexService, "range_query", "serving.service.range_query"),
    (IndexService, "flush_durable", "serving.service.flush_durable"),
    (ShardRouter, "lookup_many", "serving.router.lookup_many"),
    (ShardRouter, "range_query", "serving.router.range_query"),
    (service_module, "plan_shards", "serving.partitioner.plan_shards"),
    (LippIndex, "lookup_many", "indexes.lookup_many"),
    (LippIndex, "range_query", "indexes.range_query"),
    (LippIndex, "bulk_insert_many", "indexes.bulk_insert_many"),
    (LippIndex, "build", "indexes.build"),
    (service_module, "apply_csv", "core.apply_csv", _csv_counts),
    (partitioner, "apply_csv", "core.apply_csv", _csv_counts),
    (DurableStore, "append_runs", "store.append_runs"),
    (DurableStore, "compact", "store.compact"),
    (DurableStore, "build_shard", "store.build_shard"),
]

#: Root spans the runner opens itself around each operation it issues.
ROOTS = ("loadgen.request", "loadgen.lookup", "loadgen.range",
         "loadgen.build", "loadgen.reopen", "loadgen.recover")


@contextlib.contextmanager
def boundaries_wrapped(tracer: Tracer) -> Iterator[None]:
    for owner, attr, name, *note in BOUNDARIES:
        tracer.wrap(owner, attr, name, *note)
    try:
        yield
    finally:
        tracer.unwrap_all()


@contextlib.contextmanager
def root(tracer: Tracer | None, name: str, request: int) -> Iterator[None]:
    """One operation the runner issues; a no-op in the untraced replay."""
    if tracer is None:
        yield
        return
    tracer.request = request
    span = tracer.begin(name)
    try:
        yield
    finally:
        tracer.finish(span)


@dataclass
class Traced:
    """What a traced replay leaves behind for :data:`STATS`."""

    tracer: Tracer
    counts: defaultdict[str, float] = field(default_factory=lambda: defaultdict(float))
    outcome: Outcome = field(default_factory=Outcome)

    @functools.cached_property
    def self_times(self) -> dict[int, float]:
        """Read once the replay is over: span id -> self time."""
        return self.tracer.self_times()

    def spans(self, name: str, under: str | None = None) -> list[Span]:
        by_id = self.tracer.spans
        out = []
        for span in by_id:
            if span.name != name:
                continue
            if under is not None:
                up = span.parent
                while up is not None and by_id[up].name != under:
                    up = by_id[up].parent
                if up is None:
                    continue
            out.append(span)
        return out

    def total(self, name: str, under: str | None = None) -> float:
        return sum(s.duration for s in self.spans(name, under))

    def own_each(self, name: str) -> list[float]:
        return [self.self_times[s.id] for s in self.spans(name)]

    def own(self, name: str) -> float:
        return sum(self.own_each(name))

    def calls(self, name: str) -> int:
        return len(self.spans(name))

    def noted(self, name: str, key: str, under: str | None = None) -> float:
        return float(sum(s.meta.get(key, 0) for s in self.spans(name, under)))

    def count(self, key: str) -> float:
        return float(self.counts.get(key, 0.0))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Per-layer statistics: metric name -> function of a Traced
# ----------------------------------------------------------------------
STATS: dict[str, Callable[[Traced], float]] = {}

SERVICE_LOOKUP = "serving.service.lookup_many"
ROUTER_LOOKUP = "serving.router.lookup_many"
INDEX_LOOKUP = "indexes.lookup_many"


def stat(name: str):
    def register(fn: Callable[[Traced], float]):
        STATS[name] = fn
        return fn
    return register


def total_s(span_name: str) -> Callable[[Traced], float]:
    return lambda t: t.total(span_name)


def counted(key: str) -> Callable[[Traced], float]:
    return lambda t: t.count(key)


def own_us_per_call(span_name: str) -> Callable[[Traced], float]:
    return lambda t: ratio(t.own(span_name), t.calls(span_name)) * 1e6


# indexes/ -------------------------------------------------------------
STATS["indexes.lookup_us_per_batch"] = lambda t: ratio(
    t.total(INDEX_LOOKUP, under=SERVICE_LOOKUP), t.calls(SERVICE_LOOKUP)) * 1e6
STATS["indexes.lookup_ns_per_key"] = lambda t: ratio(
    t.total(INDEX_LOOKUP, under=SERVICE_LOOKUP), t.count("lookup_keys")) * 1e9
STATS["indexes.levels_per_lookup"] = lambda t: ratio(
    t.count("lookup_levels"), t.count("lookup_keys"))
STATS["indexes.range_us_per_call"] = lambda t: ratio(
    t.total("indexes.range_query", under="serving.service.range_query"),
    t.calls("serving.service.range_query")) * 1e6
STATS["indexes.build_s"] = total_s("indexes.build")
STATS["indexes.bulk_insert_s"] = total_s("indexes.bulk_insert_many")
for _family in ("lipp", "sali", "alex"):
    STATS[f"indexes.{_family}.lookup_ns_per_key"] = counted(
        f"indexes.{_family}.lookup_ns_per_key")

# serving/ -------------------------------------------------------------
STATS["serving.partitioner.plan_s"] = total_s("serving.partitioner.plan_shards")
STATS["serving.router.self_us_per_batch"] = own_us_per_call(ROUTER_LOOKUP)
STATS["serving.router.tax_ratio"] = lambda t: ratio(
    t.total(ROUTER_LOOKUP), t.total(INDEX_LOOKUP, under=ROUTER_LOOKUP))
STATS["serving.service.lookup_self_us_per_batch"] = own_us_per_call(SERVICE_LOOKUP)
STATS["serving.service.tax_ratio"] = lambda t: ratio(
    t.total(SERVICE_LOOKUP), t.total(ROUTER_LOOKUP))


@stat("serving.service.insert_self_us_per_batch")
def _insert_self(t: Traced) -> float:
    # The median leaves out the few inserts that carried a merge; those
    # are serving.service.merge_s.
    each = t.own_each("serving.service.insert_many")
    return statistics.median(each) * 1e6 if each else 0.0


for _name in ("merges", "merged_keys", "resmoothed_shards"):
    STATS[f"serving.service.{_name}"] = counted(f"service.{_name}")
STATS["serving.service.buffer_hit_share"] = lambda t: ratio(
    t.count("service.buffer_hits"), t.count("lookup_keys"))
STATS["serving.service.merge_s"] = counted("service.merge_s")

# core/ ----------------------------------------------------------------
STATS["core.csv_s"] = total_s("core.apply_csv")
STATS["core.resmooth_s"] = lambda t: t.total(
    "core.apply_csv", under="serving.service.insert_many")
for _name in ("virtual_points", "keys_promoted", "nodes_rebuilt"):
    # Counted where a key set is smoothed for the first time or again
    # while serving — not where a reopen repeats the build's smoothing.
    STATS[f"core.{_name}"] = lambda t, key=_name: (
        t.noted("core.apply_csv", key, under="loadgen.build")
        + t.noted("core.apply_csv", key, under="loadgen.request"))

# store/ ---------------------------------------------------------------
STATS["store.flush_s"] = total_s("store.append_runs")
STATS["store.compact_s"] = total_s("store.compact")
STATS["store.build_shard_s"] = lambda t: t.own("store.build_shard")
for _name in ("flushes", "flushed_keys", "compactions"):
    STATS[f"store.{_name}"] = counted(f"service.{_name}")
STATS["store.generation"] = counted("store.generation")
STATS["store.runs_outstanding"] = counted("store.runs_outstanding")
STATS["store.disk_bytes_per_user_byte"] = counted("store.disk_bytes_per_user_byte")

# server/ --------------------------------------------------------------
STATS["server.runtime_store.record_op_us"] = own_us_per_call(
    "server.runtime_store.record_op")
STATS["server.runtime_store.replayed_ops"] = counted("replayed_ops")
STATS["server.admission.hop_us"] = own_us_per_call("server.admission.run")
STATS["server.admission.rejected"] = counted("rejected")
STATS["server.app.parse_us"] = lambda t: ratio(
    t.total("server.app.parse"), t.calls("loadgen.request")) * 1e6
STATS["server.app.self_us_per_request"] = lambda t: ratio(
    t.own("loadgen.request") - t.count("client_cpu_s"), t.calls("loadgen.request")) * 1e6
STATS["server.tax_ratio"] = lambda t: ratio(
    t.count("lookup_request_s"), t.total(SERVICE_LOOKUP, under="loadgen.request"))
STATS["server.cpu_s_per_kreq"] = lambda t: ratio(
    t.count("server_cpu_s"), t.calls("loadgen.request")) * 1e3

# obs/, the generator, the tracer itself ---------------------------------
STATS["obs.metrics_on_over_off"] = counted("obs.metrics_on_over_off")
STATS["loadgen.client_us_per_request"] = lambda t: ratio(
    t.count("client_cpu_s"), t.calls("loadgen.request")) * 1e6
STATS["loadgen.client_cpu_share"] = lambda t: ratio(
    t.count("client_cpu_s"), t.total("loadgen.request"))
STATS["trace.overhead_ratio"] = lambda t: ratio(
    t.count("untraced_s"), t.count("traced_s"))


@stat("trace.self_time_coverage")
def _coverage(t: Traced) -> float:
    """Sum of every span's self time over the time of the operations
    the runner issued.  1.0 when every span nests inside an issued
    operation and no child outlasts its parent; work recorded outside
    an operation pushes it up, spans mis-nested across threads (a
    negative self time is clamped) pull it away from 1."""
    issued = sum(s.duration for s in t.tracer.spans
                 if s.parent is None and s.name in ROOTS)
    layered = sum(max(own, 0.0) for own in t.self_times.values())
    return ratio(layered, issued)


# ----------------------------------------------------------------------
# Rungs: measurements that need an experiment of their own
# ----------------------------------------------------------------------
@dataclass
class RungInput:
    ks: inputs.KeySet
    data_dir: Path
    wire_batches: list[np.ndarray]
    bulk_batches: list[np.ndarray]


def _median_seconds(fn: Callable[[], None], repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rung_metrics_on_off(cfg: RungInput) -> dict[str, float]:
    """``service.lookup_many`` at 256 keys, registry on over registry off."""
    registry = MetricsRegistry(enabled=False)
    with scoped_registry(registry):
        service = IndexService.open_snapshot(cfg.data_dir)
        try:
            def sweep() -> None:
                for batch in cfg.wire_batches:
                    service.lookup_many(batch)

            sweep()
            seconds = {}
            for enabled in (False, True):
                registry.enabled = enabled
                seconds[enabled] = _median_seconds(sweep)
        finally:
            service.close()
    return {"obs.metrics_on_over_off": seconds[True] / seconds[False]}


def rung_csv_families(cfg: RungInput) -> dict[str, float]:
    """The three CSV families bare (no router, no service), smoothed
    like the shards, on the bulk stream."""
    rows = {}
    n_keys = sum(b.size for b in cfg.bulk_batches)
    for family in ("lipp", "sali", "alex"):
        index = INDEX_FAMILIES[family].build(cfg.ks.keys, cfg.ks.values)
        apply_csv(adapter_for(index), CsvConfig(alpha=inputs.ALPHA))

        def sweep() -> None:
            for batch in cfg.bulk_batches:
                index.lookup_many(batch)

        sweep()
        rows[f"indexes.{family}.lookup_ns_per_key"] = (
            _median_seconds(sweep, repeats=3) / n_keys * 1e9)
    return rows


RUNGS: dict[str, Callable[[RungInput], dict[str, float]]] = {
    "obs.metrics_on_off": rung_metrics_on_off,
    "indexes.csv_families": rung_csv_families,
}


# ----------------------------------------------------------------------
# Traced replays
# ----------------------------------------------------------------------
@contextlib.contextmanager
def http_stack(data_dir: Path):
    """The ``serve --http`` defaults, in process: registry on, durable
    store, runtime store, admission 64 / 2."""
    registry = MetricsRegistry(enabled=True)
    with scoped_registry(registry):
        service = IndexService.open_snapshot(
            DurableStore(data_dir), flush_threshold=FLUSH_THRESHOLD,
            compaction=COMPACTION)
        try:
            server = ServerThread(
                service, registry=registry, store=RuntimeStore(data_dir / "runtime.db"),
                max_pending=MAX_PENDING, max_inflight=MAX_INFLIGHT)
            server.start(timeout=120.0)
            try:
                yield server, registry
            finally:
                server.stop()
        finally:
            service.close()


@dataclass
class Replay:
    wall_s: float
    client_cpu_s: float
    process_cpu_s: float
    replies: list[loadgen.Reply]


def replay_http(client: HttpIndexClient, requests: list[inputs.Request],
                tracer: Tracer | None) -> Replay:
    """One connection, one request in flight, replies checked later."""
    replies = []
    cpu0, thread0 = time.process_time(), time.thread_time()
    started = time.perf_counter()
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        status, _headers, payload = client.request(
            "POST", inputs.PATHS[request.kind], request.obj)
        replies.append(loadgen.Reply(request, time.perf_counter() - t0, status, payload))
    return Replay(time.perf_counter() - started, time.thread_time() - thread0,
                  time.process_time() - cpu0, replies)


def _note_replies(traced: Traced, replies: list[loadgen.Reply]) -> None:
    """Correctness of every reply, and the counts the replies carry."""
    out = traced.outcome
    out.attempted += len(replies)
    for reply in replies:
        if not loadgen.reply_is_correct(reply):
            out.failed += 1
            continue
        if reply.request.kind == "lookup":
            traced.counts["lookup_keys"] += reply.request.keys.size
            traced.counts["lookup_levels"] += sum(json.loads(reply.body)["levels"])
            traced.counts["lookup_request_s"] += reply.latency_s


def _note_server_counts(traced: Traced, client: HttpIndexClient,
                        registry: MetricsRegistry, data_dir: Path, live_keys: int) -> None:
    stats = client.stats()
    for name, value in stats["service"].items():
        traced.counts[f"service.{name}"] = float(value)
    traced.counts["store.generation"] = float(stats["durability"]["generation"])
    traced.counts["store.runs_outstanding"] = float(
        stats["durability"]["runs_outstanding"])
    traced.counts["store.disk_bytes_per_user_byte"] = (
        workloads.dir_bytes(data_dir) / (live_keys * 16))
    traced.counts["rejected"] = float(registry.counter("http_rejected_total").value)
    traced.counts["service.merge_s"] = float(
        registry.histogram("service_merge_seconds").sum)


def _traced_http(run: Run, tracer: Tracer, requests: list[inputs.Request],
                 prefix: int, snapshot: Path, live_keys: int,
                 while_serving: Callable[[Traced, Path], None] | None = None) -> Traced:
    """Replay *requests* twice, each time on a fresh copy of *snapshot*
    behind a fresh in-process server: the first *prefix* requests
    untraced, then all of them traced.  *while_serving* runs after the
    traced replay, with the boundaries still wrapped and the traced
    server still up."""
    traced = Traced(tracer)
    warmup = [r for r in requests if r.kind == "lookup"][:TRACED_WARMUP]

    data_dir = run.scratch / "untraced"
    shutil.copytree(snapshot, data_dir)
    with http_stack(data_dir) as (server, _registry), \
            HttpIndexClient(server.host, server.port) as client:
        replay_http(client, warmup, None)
        replay = replay_http(client, requests[:prefix], None)
    traced.counts["untraced_s"] = sum(r.latency_s for r in replay.replies)
    traced.outcome.attempted += len(replay.replies)
    traced.outcome.failed += sum(not loadgen.reply_is_correct(r) for r in replay.replies)

    data_dir = run.scratch / "traced"
    shutil.copytree(snapshot, data_dir)
    with http_stack(data_dir) as (server, registry), \
            HttpIndexClient(server.host, server.port) as client:
        replay_http(client, warmup, None)
        with boundaries_wrapped(tracer):
            replay = replay_http(client, requests, tracer)
            if while_serving is not None:
                while_serving(traced, data_dir)
        traced.counts["traced_s"] = sum(r.latency_s for r in replay.replies[:prefix])
        traced.counts["client_cpu_s"] = replay.client_cpu_s
        traced.counts["server_cpu_s"] = replay.process_cpu_s - replay.client_cpu_s
        _note_replies(traced, replay.replies)
        _note_server_counts(traced, client, registry, data_dir, live_keys)
    return traced


def traced_http_lookup(run: Run, tracer: Tracer) -> Traced:
    cfg = run.cfg
    ks = inputs.make_keys(cfg, run.seed)
    streams = inputs.lookup_streams(
        ks, inputs.stream_rng(run.seed, "http_lookup"), cfg.lookup_requests)
    requests = inputs.interleave(streams)[: cfg.traced_requests]
    snapshot = run.scratch / "snapshot"
    workloads.prepare_snapshot(ks, snapshot)
    traced = _traced_http(run, tracer, requests, len(requests), snapshot, ks.keys.size)
    traced.counts.update(RUNGS["obs.metrics_on_off"](RungInput(
        ks, snapshot, [r.keys for r in requests[:100]], [])))
    return traced


def traced_http_mixed_durable(run: Run, tracer: Tracer) -> Traced:
    """The whole pass is traced (merges start late in it), and the
    recovery is traced on a crash-consistent copy of the live
    directories taken while the server is idle: an in-process server
    cannot be SIGKILLed, a copy of what it had written can be reopened."""
    cfg = run.cfg
    ks = inputs.make_keys(cfg, run.seed)
    streams, written = inputs.mixed_streams(
        ks, inputs.stream_rng(run.seed, "http_mixed_durable"), cfg.mixed_requests)
    requests = inputs.interleave(streams)
    snapshot = run.scratch / "snapshot"
    workloads.prepare_snapshot(ks, snapshot)

    def recover(traced: Traced, live_dir: Path) -> None:
        crashed = run.scratch / "crashed"
        shutil.copytree(live_dir, crashed)
        with contextlib.ExitStack() as recovered:
            with root(tracer, "loadgen.recover", len(requests)):
                server, registry = recovered.enter_context(http_stack(crashed))
            traced.counts["replayed_ops"] = float(
                registry.counter("http_replayed_ops_total").value)
            workloads.check_recovered(traced.outcome, server, written)

    return _traced_http(
        run, tracer, requests, min(cfg.traced_requests, len(requests)), snapshot,
        ks.keys.size + len(written), while_serving=recover)


def _note_batches(traced: Traced, answers) -> None:
    for batch in answers:
        traced.counts["lookup_keys"] += batch.keys.size
        traced.counts["lookup_levels"] += int(batch.levels.sum())


def _note_store(traced: Traced, service: IndexService, data_dir: Path, n_keys: int) -> None:
    traced.counts["store.generation"] = float(service.durable_generation())
    traced.counts["store.runs_outstanding"] = float(service.store.runs_outstanding())
    traced.counts["store.disk_bytes_per_user_byte"] = (
        workloads.dir_bytes(data_dir) / (n_keys * 16))


def traced_bulk_scan(run: Run, tracer: Tracer) -> Traced:
    cfg = run.cfg
    traced = Traced(tracer)
    ks = inputs.make_keys(cfg, run.seed)
    work = workloads.bulk_inputs(ks, inputs.stream_rng(run.seed, "bulk_scan"), cfg)
    n = min(cfg.traced_batches, len(work.batches), len(work.ranges))
    data_dir = run.scratch / "bulk_scan"
    workloads.prepare_snapshot(ks, data_dir)
    service = IndexService.open_snapshot(data_dir)
    try:
        def replay(with_tracer: Tracer | None) -> float:
            started = time.perf_counter()
            answers, scans = [], []
            for i, batch in enumerate(work.batches[:n]):
                with root(with_tracer, "loadgen.lookup", i):
                    answers.append(service.lookup_many(batch))
            for i, sl in enumerate(work.ranges[:n]):
                low, high = int(ks.keys[sl.start]), int(ks.keys[sl.stop - 1])
                with root(with_tracer, "loadgen.range", n + i):
                    scans.append(service.range_query(low, high))
            elapsed = time.perf_counter() - started
            traced.outcome.attempted += 2 * n
            traced.outcome.failed += sum(
                not workloads.lookups_match(a, f, v)
                for a, f, v in zip(answers, work.expect_found, work.expect_values))
            traced.outcome.failed += sum(
                not workloads.range_matches(ks, sl, pairs)
                for sl, pairs in zip(work.ranges, scans))
            if with_tracer is not None:
                _note_batches(traced, answers)
            return elapsed

        replay(None)  # warm-up
        traced.counts["untraced_s"] = replay(None)
        with boundaries_wrapped(tracer):
            traced.counts["traced_s"] = replay(tracer)
        _note_store(traced, service, data_dir, ks.keys.size)
    finally:
        service.close()
    traced.counts.update(RUNGS["indexes.csv_families"](RungInput(
        ks, data_dir, [], work.batches[:n])))
    return traced


def traced_csv_build(run: Run, tracer: Tracer) -> Traced:
    cfg = run.cfg
    traced = Traced(tracer)
    ks = inputs.make_keys(cfg, run.seed)
    order = inputs.stream_rng(run.seed, "csv_build").permutation(ks.keys.size)
    chunks = [order[i : i + inputs.WIRE_BATCH]
              for i in range(0, order.size, inputs.WIRE_BATCH)]

    def one_pass(with_tracer: Tracer | None, data_dir: Path) -> float:
        started = time.perf_counter()
        with root(with_tracer, "loadgen.build", 0):
            service = workloads.build_service(ks, data_dir)
            service.snapshot()
            service.close()
        with root(with_tracer, "loadgen.reopen", 1):
            service = IndexService.open_snapshot(data_dir)
        try:
            answers = []
            for i, chunk in enumerate(chunks):
                with root(with_tracer, "loadgen.lookup", 2 + i):
                    answers.append(service.lookup_many(ks.keys[chunk]))
            elapsed = time.perf_counter() - started
            if with_tracer is not None:
                _note_batches(traced, answers)
                _note_store(traced, service, data_dir, ks.keys.size)
        finally:
            service.close()
        traced.outcome.attempted += 2 + len(chunks)
        traced.outcome.failed += sum(
            not (a.found.all() and np.array_equal(a.values, ks.values[chunk]))
            for a, chunk in zip(answers, chunks))
        return elapsed

    traced.counts["untraced_s"] = one_pass(None, run.scratch / "untraced")
    with boundaries_wrapped(tracer):
        traced.counts["traced_s"] = one_pass(tracer, run.scratch / "traced")
    return traced


TRACED_RUNS: dict[str, Callable[[Run, Tracer], Traced]] = {
    "http_lookup": traced_http_lookup,
    "http_mixed_durable": traced_http_mixed_durable,
    "bulk_scan": traced_bulk_scan,
    "csv_build": traced_csv_build,
}


def run_traced(name: str, run: Run, trace_dir: str | None) -> Outcome:
    tracer = Tracer()
    traced = TRACED_RUNS[name](run, tracer)
    outcome = traced.outcome
    outcome.metrics = {metric: float(fn(traced)) for metric, fn in STATS.items()}
    if outcome.failed:
        outcome.problems.append(f"{name}: {outcome.failed} traced operations failed")
    trace_file = run.scratch / f"trace-{name}.jsonl"
    tracer.write_jsonl(trace_file)
    outcome.extras["spans"] = (float(len(tracer.spans)), "count")
    if trace_dir is not None:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
        shutil.copy(trace_file, trace_dir)
    return outcome
