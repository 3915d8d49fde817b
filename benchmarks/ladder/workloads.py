"""The four workloads, untraced: what a user of the system would see.

Each workload is a callable ``(Run) -> Outcome`` in :data:`WORKLOADS`.
All of them serve the same key set through the same service shape
(see :mod:`inputs`), run ``cfg.passes`` identical passes of fixed
operation counts and report the **median pass** for every timing —
single passes on a shared box swing by a tenth.

Every workload reports the same end-to-end metric names (the
benchmark contract wants each metric on each workload); what a name
measures on a given workload is tabulated in ``README.md``.
Quantities only one workload has (write latency, stall time, range
throughput, exact merge counts ...) are returned as ``extras``: printed
with their units, never gated.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import loadgen
import paths
import procs
import speed
from inputs import Config, KeySet

from repro.serving import IndexService
from repro.store import DurableStore

#: A request slower than this (or failed, or refused) counts as stalled.
STALL_LIMIT_MS = 50.0
#: The generator may use at most this share of a round trip.
CLIENT_CPU_LIMIT = 0.25
#: How often http_lookup spawns its server and bulk_scan reopens its
#: snapshot during set-up; ``reopen_s`` is the median, because one
#: reopen alone swings by a fifth.
SPAWNS = 2
REOPENS = 3
#: Highest percentile each workload's read sample supports with at
#: least ten samples beyond it in every pass.
TAIL_PERCENTILE = {"http_lookup": 99, "http_mixed_durable": 99,
                   "bulk_scan": 90, "csv_build": 90}


@dataclass
class Run:
    """What a workload is handed: sizes, seed, scratch dir, child registry."""

    cfg: Config
    seed: int
    scratch: Path
    children: procs.Children
    #: Test-only fault injection: ``wrong_answer`` / ``lost_write``.
    inject: str | None = None


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    extras: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def median(values) -> float:
    return float(statistics.median(values))


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def build_service(ks: KeySet, data_dir: Path) -> IndexService:
    return IndexService.build(
        ks.keys, family=inputs.FAMILY, n_shards=inputs.N_SHARDS,
        values=ks.values, alpha=inputs.ALPHA, store=DurableStore(data_dir),
    )


def prepare_snapshot(ks: KeySet, data_dir: Path) -> float:
    """Build + snapshot the common service into *data_dir*; returns its
    modelled in-memory bytes per key."""
    service = build_service(ks, data_dir)
    try:
        service.snapshot()
        return service.size_bytes() / ks.keys.size
    finally:
        service.close()


# ----------------------------------------------------------------------
# HTTP workloads
# ----------------------------------------------------------------------
def _warm_up(server: procs.Server, streams, n_requests: int) -> None:
    reads = [r for r in inputs.interleave(streams) if r.kind == "lookup"][:n_requests]
    # The first read travels alone.  A freshly opened service compiles
    # each shard's flat lookup view lazily on first use, and that compile
    # is not safe under two concurrent readers: this benchmark caught
    # the server losing ~360 acknowledged keys at the next merge after
    # two connections raced on a cold shard (README, "Defect found").
    # One 256-key batch touches all four shards.
    loadgen.drive(server.host, server.port, [reads[:1]])
    rest = reads[1:]
    loadgen.drive(server.host, server.port,
                  [rest[c :: inputs.CONNECTIONS] for c in range(inputs.CONNECTIONS)])


#: Metrics reported at reference machine speed (see :mod:`speed`);
#: each also appears raw, as the extra ``raw_<name>``.
SCALED_TIMES = ("setup_s", "reopen_s", "read_p50_ms", "read_tail_ms")
SCALED_RATES = ("keys_per_s",)


def at_reference_speed(stats: dict[str, float], slowdown: float) -> dict[str, float]:
    """Scale the timing entries of *stats* in place, keeping raw copies."""
    for name in SCALED_TIMES + SCALED_RATES:
        if name in stats:
            stats["raw_" + name] = stats[name]
            stats[name] = (stats[name] / slowdown if name in SCALED_TIMES
                           else stats[name] * slowdown)
    return stats


def _pass_stats(result: loadgen.PassResult, tail: int, slowdown: float) -> dict[str, float]:
    replies = result.replies
    reads = loadgen.latencies_ms(replies, "lookup")
    keys_done = sum(r.request.keys.size for r in replies if r.status == 200)
    stalled = [r.latency_s for r in replies
               if r.status != 200 or r.latency_s * 1e3 > STALL_LIMIT_MS]
    stats = {
        "pass_s": result.wall_s,
        "keys_per_s": keys_done / result.wall_s,
        "requests_per_s": len(replies) / result.wall_s,
        "read_p50_ms": float(np.percentile(reads, 50)),
        "read_tail_ms": float(np.percentile(reads, tail)),
        "stall_s": float(sum(stalled)),
        "stalled_requests": float(len(stalled)),
        "client_cpu_share": result.client_cpu_s / sum(r.latency_s for r in replies),
        "client_us_per_request": result.client_cpu_s / len(replies) * 1e6,
    }
    writes = loadgen.latencies_ms(replies, "insert")
    if writes.size:
        stats["write_p50_ms"] = float(np.percentile(writes, 50))
    return at_reference_speed(stats, slowdown)


def _check_replies(outcome: Outcome, replies: list[loadgen.Reply],
                   server: procs.Server) -> None:
    outcome.attempted += len(replies)
    bad = [r for r in replies if not loadgen.reply_is_correct(r)]
    outcome.failed += len(bad)
    if bad:
        by_status = {s: sum(r.status == s for r in bad) for s in sorted({r.status for r in bad})}
        outcome.problems.append(
            f"{len(bad)} of {len(replies)} requests failed, by status {by_status} "
            f"(0 = no complete reply, 200 = answer differs from the oracle); "
            f"first: {bad[0].request.kind} -> {bad[0].body[:200]!r}; server log ends: "
            f"{server.log_path.read_text(errors='replace')[-600:]!r}"
        )


#: Units of everything a workload may report beside the gated metrics.
EXTRA_UNITS = {
    "raw_setup_s": "s", "raw_reopen_s": "s", "raw_keys_per_s": "1/s",
    "raw_read_p50_ms": "ms", "raw_read_tail_ms": "ms", "machine_slowdown": "ratio",
    "requests_per_s": "1/s", "write_p50_ms": "ms", "stall_s": "s",
    "stalled_requests": "count", "pass_s": "s", "client_cpu_share": "ratio",
    "client_us_per_request": "us", "range_keys_per_s": "1/s",
    "lookup_ms_per_batch": "ms",
}
GATED = ("setup_s", "keys_per_s", "read_p50_ms", "read_tail_ms", "reopen_s",
         "rss_mb", "mem_bytes_per_key", "disk_bytes_per_key")


def fold_passes(outcome: Outcome, per_pass: list[dict[str, float]]) -> None:
    """The median pass: gated names -> metrics, the rest -> extras."""
    for name in per_pass[0]:
        mid = median(p[name] for p in per_pass)
        if name in GATED:
            outcome.metrics[name] = mid
        else:
            outcome.extras[name] = (mid, EXTRA_UNITS[name])


def _check_generator_share(outcome: Outcome) -> None:
    share = outcome.extras["client_cpu_share"][0]
    if share > CLIENT_CPU_LIMIT:
        outcome.problems.append(
            f"load generator used {share:.0%} of a round trip "
            f"(limit {CLIENT_CPU_LIMIT:.0%}); the run is invalid"
        )


def _stats_extras(outcome: Outcome, server: procs.Server) -> None:
    """Exact counts from ``GET /v1/stats`` (they repeat run to run)."""
    status, stats = server.get_json("/v1/stats")
    if status != 200:
        outcome.problems.append(f"GET /v1/stats answered {status}")
        return
    for name in ("merges", "merged_keys", "resmoothed_shards", "flushes",
                 "flushed_keys", "compactions"):
        outcome.extras[name] = (float(stats["service"][name]), "count")
    outcome.extras["generation"] = (float(stats["durability"]["generation"]), "count")
    outcome.extras["runs_outstanding"] = (
        float(stats["durability"]["runs_outstanding"]), "count")


def http_lookup(run: Run) -> Outcome:
    cfg = run.cfg
    outcome = Outcome()
    pace = speed.Pace()
    with pace.section() as prepared:
        ks = inputs.make_keys(cfg, run.seed)
        streams = inputs.lookup_streams(
            ks, inputs.stream_rng(run.seed, "http_lookup"), cfg.lookup_requests)
        if run.inject == "wrong_answer":
            streams[0][0].expect[0] = -1
        data_dir = run.scratch / "http_lookup"
        mem_per_key = prepare_snapshot(ks, data_dir)
    spawns, server = [], None
    try:
        for _ in range(SPAWNS):  # the last server is the one measured
            if server is not None:
                server.stop()
            with pace.section() as spawned:
                server = procs.Server(run.children, paths.SRC, data_dir,
                                      run.scratch / "server.log")
            spawns.append(spawned)
        with pace.section() as warmed:
            _warm_up(server, streams, cfg.warmup_requests)
            settle()
        fold_passes(outcome, [{
            "setup_s": prepared.scaled_s + median(s.scaled_s for s in spawns) + warmed.scaled_s,
            "raw_setup_s": prepared.raw_s + median(s.raw_s for s in spawns) + warmed.raw_s,
            "reopen_s": median(s.scaled_s for s in spawns),
            "raw_reopen_s": median(s.raw_s for s in spawns),
        }])
        cpu_before = server.cpu_seconds()
        per_pass = []
        for _ in range(cfg.passes):
            with pace.section() as timed:
                result = loadgen.drive(server.host, server.port, streams)
            per_pass.append(
                _pass_stats(result, TAIL_PERCENTILE["http_lookup"], timed.slowdown))
            _check_replies(outcome, result.replies, server)
        cpu_s = server.cpu_seconds() - cpu_before
        fold_passes(outcome, per_pass)
        _check_generator_share(outcome)
        outcome.extras["server_cpu_share"] = (
            cpu_s / sum(p["pass_s"] for p in per_pass), "ratio")
        outcome.extras["machine_slowdown"] = (pace.typical_slowdown(), "ratio")
        outcome.metrics["rss_mb"] = server.peak_rss_mb()
        outcome.metrics["mem_bytes_per_key"] = mem_per_key
        outcome.metrics["disk_bytes_per_key"] = dir_bytes(data_dir) / ks.keys.size
        _stats_extras(outcome, server)
    finally:
        if server is not None:
            server.stop()
    return outcome


def http_mixed_durable(run: Run) -> Outcome:
    cfg = run.cfg
    outcome = Outcome()
    pace = speed.Pace()
    with pace.section() as prepared:
        ks = inputs.make_keys(cfg, run.seed)
        streams, written = inputs.mixed_streams(
            ks, inputs.stream_rng(run.seed, "http_mixed_durable"), cfg.mixed_requests)
        if run.inject == "wrong_answer":
            next(r for r in streams[0] if r.kind == "lookup").expect[0] = -1
        snapshot = run.scratch / "mixed-snapshot"
        mem_per_key = prepare_snapshot(ks, snapshot)

    per_pass, per_pass_setup = [], []
    server = None
    try:
        for pass_no in range(cfg.passes):
            # Every pass starts from a fresh copy of the prepared
            # snapshot on a fresh server, so all passes do identical work.
            with pace.section() as readied:
                if server is not None:
                    server.stop()
                    shutil.rmtree(server.data_dir)
                live = run.scratch / f"mixed-pass{pass_no}"
                shutil.copytree(snapshot, live)
                server = procs.Server(run.children, paths.SRC, live,
                                      run.scratch / f"server-pass{pass_no}.log")
                _warm_up(server, streams, cfg.warmup_requests)
                settle()
            per_pass_setup.append(readied)
            with pace.section() as timed:
                result = loadgen.drive(server.host, server.port, streams)
            per_pass.append(
                _pass_stats(result, TAIL_PERCENTILE["http_mixed_durable"], timed.slowdown))
            _check_replies(outcome, result.replies, server)
        fold_passes(outcome, per_pass)
        _check_generator_share(outcome)
        outcome.metrics["rss_mb"] = server.peak_rss_mb()
        outcome.metrics["mem_bytes_per_key"] = mem_per_key
        live_keys = ks.keys.size + len(written)
        outcome.metrics["disk_bytes_per_key"] = dir_bytes(server.data_dir) / live_keys
        _stats_extras(outcome, server)

        # Power cut, restart on the same directories, then every
        # acknowledged key must still be there.
        server.crash()
        if run.inject == "lost_write":
            for db_file in server.data_dir.glob("runtime.db*"):
                db_file.unlink()
        with pace.section() as recovered:
            server = procs.Server(run.children, paths.SRC, server.data_dir,
                                  run.scratch / "server-recovered.log")
            status, _health = server.get_json("/v1/health")
        if status != 200:
            outcome.problems.append(f"/v1/health answered {status} after recovery")
        fold_passes(outcome, [{
            "setup_s": prepared.scaled_s + median(s.scaled_s for s in per_pass_setup),
            "raw_setup_s": prepared.raw_s + median(s.raw_s for s in per_pass_setup),
            "reopen_s": recovered.scaled_s,
            "raw_reopen_s": recovered.raw_s,
        }])
        outcome.extras["machine_slowdown"] = (pace.typical_slowdown(), "ratio")
        check_recovered(outcome, server, written)
    finally:
        if server is not None:
            server.stop()
    return outcome


def check_recovered(outcome: Outcome, server, written: dict[int, int]) -> None:
    """Look every acknowledged key up on *server* (anything with
    ``host`` and ``port``) after its restart; none may be missing."""
    acked = np.fromiter(written, dtype=np.int64, count=len(written))
    checks = [
        inputs.lookup_request(acked[i : i + inputs.WIRE_BATCH], written)
        for i in range(0, acked.size, inputs.WIRE_BATCH)
    ]
    result = loadgen.drive(server.host, server.port, [checks])
    outcome.attempted += len(result.replies)
    lost = 0
    for reply in result.replies:
        if not loadgen.reply_is_correct(reply):
            outcome.failed += 1
            lost += _lost_keys(reply)
    outcome.extras["acked_keys"] = (float(acked.size), "count")
    outcome.extras["acked_keys_lost"] = (float(lost), "count")
    if lost:
        outcome.problems.append(
            f"{lost} of {acked.size} acknowledged keys lost across SIGKILL + restart")


def _lost_keys(reply: loadgen.Reply) -> int:
    try:
        found = json.loads(reply.body).get("found", []) if reply.status == 200 else []
    except ValueError:
        found = []
    return reply.request.keys.size - sum(bool(f) for f in found)


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
@dataclass
class BulkInputs:
    batches: list[np.ndarray]
    expect_found: list[np.ndarray]
    expect_values: list[np.ndarray]
    ranges: list[slice]


def bulk_inputs(ks: KeySet, rng: np.random.Generator, cfg: Config) -> BulkInputs:
    absent = inputs.absent_keys(rng, ks.keys, 4 * inputs.WIRE_BATCH)
    batches = [inputs.lookup_batch(rng, ks.keys, absent, cfg.bulk_batch_keys)
               for _ in range(cfg.bulk_batches)]
    found, values = [], []
    for batch in batches:
        answers = [ks.oracle.get(k) for k in batch.tolist()]
        found.append(np.asarray([a is not None for a in answers]))
        values.append(np.asarray([a or 0 for a in answers], dtype=np.int64))
    return BulkInputs(batches, found, values,
                      inputs.range_slices(ks, rng, cfg.range_calls, cfg.range_keys))


def lookups_match(batch, found: np.ndarray, values: np.ndarray) -> bool:
    return bool(np.array_equal(batch.found, found)
                and np.array_equal(batch.values[found], values[found]))


def range_matches(ks: KeySet, sl: slice, pairs) -> bool:
    return pairs == list(zip(ks.keys[sl].tolist(), ks.values[sl].tolist()))


def settle() -> None:
    """End of set-up: collect once, then park everything the benchmark
    itself allocated (oracle, request streams, expectations) outside the
    collector's reach, so the timed windows see only the collections the
    program's own allocations cause."""
    gc.collect()
    gc.freeze()


def bulk_scan(run: Run) -> Outcome:
    cfg = run.cfg
    outcome = Outcome()
    pace = speed.Pace()
    with pace.section() as prepared:
        ks = inputs.make_keys(cfg, run.seed)
        work = bulk_inputs(ks, inputs.stream_rng(run.seed, "bulk_scan"), cfg)
        if run.inject == "wrong_answer":
            work.expect_found[0][0] ^= True
        data_dir = run.scratch / "bulk_scan"
        outcome.metrics["mem_bytes_per_key"] = prepare_snapshot(ks, data_dir)
    reopens, service = [], None
    try:
        for _ in range(REOPENS):  # median of several; the last one is scanned
            if service is not None:
                # Freed before the next one exists, or peak RSS would
                # depend on when the collector got to the old tree.
                service.close()
                service = None
                gc.collect()
            with pace.section() as reopened:
                service = IndexService.open_snapshot(data_dir)
            reopens.append(reopened)
        with pace.section() as warmed:
            service.lookup_many(work.batches[0])
            for sl in work.ranges[:10]:
                service.range_query(int(ks.keys[sl.start]), int(ks.keys[sl.stop - 1]))
            settle()
        fold_passes(outcome, [{
            "setup_s": prepared.scaled_s + median(s.scaled_s for s in reopens) + warmed.scaled_s,
            "raw_setup_s": prepared.raw_s + median(s.raw_s for s in reopens) + warmed.raw_s,
            "reopen_s": median(s.scaled_s for s in reopens),
            "raw_reopen_s": median(s.raw_s for s in reopens),
        }])

        per_pass = []
        tail = TAIL_PERCENTILE["bulk_scan"]
        for _ in range(cfg.passes):
            # Each answer is checked right after its call, outside the
            # timers, and dropped: kept answers would be most of the RSS.
            lookup_s = 0.0
            with pace.section() as looked_up:
                for batch, found, values in zip(
                        work.batches, work.expect_found, work.expect_values):
                    t0 = time.perf_counter()
                    answer = service.lookup_many(batch)
                    lookup_s += time.perf_counter() - t0
                    outcome.failed += not lookups_match(answer, found, values)
            range_ms, range_keys = [], 0
            with pace.section() as scanned:
                for sl in work.ranges:
                    low, high = int(ks.keys[sl.start]), int(ks.keys[sl.stop - 1])
                    t0 = time.perf_counter()
                    pairs = service.range_query(low, high)
                    range_ms.append((time.perf_counter() - t0) * 1e3)
                    range_keys += len(pairs)
                    outcome.failed += not range_matches(ks, sl, pairs)
            outcome.attempted += len(work.batches) + len(work.ranges)
            stats = at_reference_speed(
                {"keys_per_s": sum(b.size for b in work.batches) / lookup_s},
                looked_up.slowdown)
            stats.update(at_reference_speed({
                "read_p50_ms": float(np.percentile(range_ms, 50)),
                "read_tail_ms": float(np.percentile(range_ms, tail)),
            }, scanned.slowdown))
            stats["range_keys_per_s"] = range_keys / (sum(range_ms) / 1e3)
            stats["lookup_ms_per_batch"] = lookup_s / len(work.batches) * 1e3
            per_pass.append(stats)
        fold_passes(outcome, per_pass)
        outcome.extras["machine_slowdown"] = (pace.typical_slowdown(), "ratio")
        outcome.metrics["disk_bytes_per_key"] = dir_bytes(data_dir) / ks.keys.size
    finally:
        if service is not None:
            service.close()
    outcome.metrics["rss_mb"] = procs.peak_rss_mb()
    if outcome.failed:
        outcome.problems.append(f"bulk_scan: {outcome.failed} calls differ from the oracle")
    return outcome


#: csv_build looks the whole key set up this many times per pass, so
#: the read percentiles rest on ~1 000 calls instead of ~200.
CSV_LOOKUP_SWEEPS = 5


def csv_build(run: Run) -> Outcome:
    cfg = run.cfg
    outcome = Outcome()
    pace = speed.Pace()
    tail = TAIL_PERCENTILE["csv_build"]
    per_pass = []
    for pass_no in range(cfg.passes):
        with pace.section() as prepared:
            ks = inputs.make_keys(cfg, run.seed)
            rng = inputs.stream_rng(run.seed, "csv_build")
            absent = inputs.absent_keys(rng, ks.keys, 4 * inputs.WIRE_BATCH)
            chunks = []
            for _ in range(CSV_LOOKUP_SWEEPS):
                order = rng.permutation(ks.keys.size)
                chunks += [order[i : i + inputs.WIRE_BATCH]
                           for i in range(0, order.size, inputs.WIRE_BATCH)]
            data_dir = run.scratch / f"csv_build-pass{pass_no}"
            settle()

        with pace.section() as built:
            service = build_service(ks, data_dir)
            service.snapshot()
            service.close()
        mem_per_key = service.size_bytes() / ks.keys.size
        disk_per_key = dir_bytes(data_dir) / ks.keys.size

        with pace.section() as reopened:
            service = IndexService.open_snapshot(data_dir)
        wrong = 0
        try:
            lookup_ms = []
            with pace.section() as looked_up:
                for chunk in chunks:
                    keys = ks.keys[chunk]
                    t0 = time.perf_counter()
                    answer = service.lookup_many(keys)
                    lookup_ms.append((time.perf_counter() - t0) * 1e3)
                    wrong += not (answer.found.all()
                                  and np.array_equal(answer.values, ks.values[chunk]))
            # Virtual points must never be reported as stored keys.
            wrong += int(service.lookup_many(absent).found.any())
        finally:
            service.close()
        shutil.rmtree(data_dir)
        if run.inject == "wrong_answer" and pass_no == 0:
            wrong += 1
        outcome.attempted += 2 + len(chunks) + 1
        outcome.failed += wrong
        stats = at_reference_speed(
            {"setup_s": prepared.raw_s}, prepared.slowdown)
        stats.update(at_reference_speed(
            {"keys_per_s": ks.keys.size / built.raw_s}, built.slowdown))
        stats.update(at_reference_speed({"reopen_s": reopened.raw_s}, reopened.slowdown))
        stats.update(at_reference_speed({
            "read_p50_ms": float(np.percentile(lookup_ms, 50)),
            "read_tail_ms": float(np.percentile(lookup_ms, tail)),
        }, looked_up.slowdown))
        stats["mem_bytes_per_key"] = mem_per_key
        stats["disk_bytes_per_key"] = disk_per_key
        per_pass.append(stats)
    fold_passes(outcome, per_pass)
    outcome.extras["machine_slowdown"] = (pace.typical_slowdown(), "ratio")
    outcome.metrics["rss_mb"] = procs.peak_rss_mb()
    if outcome.failed:
        outcome.problems.append(f"csv_build: {outcome.failed} calls differ from the oracle")
    return outcome


@dataclass(frozen=True)
class Workload:
    run: Callable[[Run], Outcome]
    why: str


#: name -> workload.  Names are permanent; later issues cite them.
WORKLOADS: dict[str, Workload] = {
    "http_lookup": Workload(
        http_lookup,
        "wire-sized reads (256 keys/request): server/ does most of the work, "
        "indexes/ almost none",
    ),
    "http_mixed_durable": Workload(
        http_mixed_durable,
        "writes beside reads, then SIGKILL + restart: core/ and store/ "
        "(merge, re-smooth, flush, compaction, replay) do most of the work",
    ),
    "bulk_scan": Workload(
        bulk_scan,
        "in-process 40k-key batches and 1k-key ranges: per-batch overheads "
        "amortise, indexes/ does most of the work, server/ none",
    ),
    "csv_build": Workload(
        csv_build,
        "the paper's offline pipeline (build, smooth, snapshot, reopen): "
        "core/ does most of the work; serving changes must not move it",
    ),
}
