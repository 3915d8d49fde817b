"""Process executor: spec API, shm lifecycle, parity, and failover.

The contract under test: the process backend is an *invisible*
optimisation — every answer bit-identical to the serial router, a
killed worker costs a restart but never a wrong result, and closing
the service leaves no shared-memory segment behind.
"""

from __future__ import annotations

import os
import signal
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.exceptions import IndexStateError
from repro.indexes import INDEX_FAMILIES
from repro.serving import (
    ExecutorError,
    ExecutorSpec,
    IndexService,
    ReplicaHealth,
)


def service_keys(rng, n=6000):
    return np.unique(rng.integers(0, 10**8, n))


def mixed_queries(rng, keys, n=3000):
    return np.concatenate(
        [rng.choice(keys, n), rng.integers(0, int(keys[-1]) * 2, n // 4)]
    )


def assert_batches_equal(got, want):
    for field in ("found", "values", "levels", "search_steps"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


class TestExecutorSpec:
    def test_defaults_are_serial(self):
        spec = ExecutorSpec()
        assert spec.kind == "serial"
        assert spec.n_replicas == 1

    def test_parse_strings(self):
        assert ExecutorSpec.parse("process").kind == "process"
        spec = ExecutorSpec.parse("process:4")
        assert (spec.kind, spec.n_workers) == ("process", 4)
        assert ExecutorSpec.parse(None) == ExecutorSpec()
        existing = ExecutorSpec(kind="process", n_replicas=2)
        assert ExecutorSpec.parse(existing) is existing

    @pytest.mark.parametrize(
        "bad",
        [
            dict(kind="gpu"),
            dict(kind="process", n_workers=0),
            dict(kind="process", n_replicas=0),
            dict(kind="process", timeout_s=0.0),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(IndexStateError):
            ExecutorSpec(**bad)

    def test_parse_rejects_garbage(self):
        with pytest.raises(IndexStateError):
            ExecutorSpec.parse("process:lots")
        with pytest.raises(IndexStateError):
            ExecutorSpec.parse(7)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ExecutorSpec("thread"),
            lambda: ExecutorSpec.parse("thread"),
            lambda: ExecutorSpec.parse("thread:4"),
        ],
        ids=["ctor", "parse", "parse-workers"],
    )
    def test_removed_thread_kind_is_rejected(self, make):
        with pytest.raises(IndexStateError, match="serial.*process"):
            make()

    def test_resolved_workers_never_below_replicas(self):
        spec = ExecutorSpec(kind="process", n_replicas=3)
        assert spec.resolved_workers(1) >= 3
        assert ExecutorSpec(kind="process", n_workers=2).resolved_workers(8) == 2


class TestProcessParity:
    def test_k1_process_is_bit_identical_to_bare_index(self, rng):
        keys = service_keys(rng)
        queries = mixed_queries(rng, keys)
        bare = INDEX_FAMILIES["lipp"].build(keys)
        with IndexService.build(
            keys, family="lipp", n_shards=1, executor="process"
        ) as service:
            assert_batches_equal(service.lookup_many(queries), bare.lookup_many(queries))

    @pytest.mark.parametrize("family", ["lipp", "sali", "btree", "pgm"])
    def test_process_matches_serial_across_shards(self, rng, family):
        keys = service_keys(rng)
        queries = mixed_queries(rng, keys)
        with IndexService.build(keys, family=family, n_shards=4) as serial:
            want = serial.lookup_many(queries)
        spec = ExecutorSpec(kind="process", n_workers=2, n_replicas=2)
        with IndexService.build(
            keys, family=family, n_shards=4, executor=spec
        ) as service:
            assert service.router.process_based
            assert_batches_equal(service.lookup_many(queries), want)

    def test_writes_republish_and_read_back(self, rng):
        keys = service_keys(rng)
        fresh = np.arange(int(keys[-1]) + 1, int(keys[-1]) + 801, dtype=np.int64)
        with IndexService.build(
            keys, family="btree", n_shards=4, executor="process",
            staleness_threshold=0.01,
        ) as service:
            service.insert_many(fresh)
            service.flush()  # force merges through the republish path
            batch = service.lookup_many(fresh)
            assert batch.found.all()
            assert np.array_equal(batch.values, fresh)


class TestFailover:
    def test_killed_worker_fails_over_bit_identically(self, rng):
        keys = service_keys(rng)
        queries = mixed_queries(rng, keys)
        with IndexService.build(keys, family="btree", n_shards=4) as serial:
            want = serial.lookup_many(queries)
        spec = ExecutorSpec(kind="process", n_workers=2, n_replicas=2, timeout_s=20.0)
        with IndexService.build(
            keys, family="btree", n_shards=4, executor=spec
        ) as service:
            report = service.executor_report()
            assert all(isinstance(r, ReplicaHealth) and r.alive for r in report)
            os.kill(report[0].pid, signal.SIGKILL)
            assert_batches_equal(service.lookup_many(queries), want)
            assert service.worker_restarts() >= 1
            # The respawned replica rejoined: everyone alive again.
            assert all(r.alive for r in service.executor_report())
            health = service.health_report()
            assert health.worker_restarts >= 1
            assert any("restart" in w for w in health.warnings())

    def test_repeated_kills_keep_answers_correct(self, rng):
        keys = service_keys(rng, n=3000)
        queries = mixed_queries(rng, keys, n=1000)
        with IndexService.build(keys, family="lipp", n_shards=2) as serial:
            want = serial.lookup_many(queries)
        spec = ExecutorSpec(kind="process", n_workers=2, n_replicas=2, timeout_s=20.0)
        with IndexService.build(
            keys, family="lipp", n_shards=2, executor=spec
        ) as service:
            for __ in range(3):
                victim = service.executor_report()[0].pid
                os.kill(victim, signal.SIGKILL)
                assert_batches_equal(service.lookup_many(queries), want)


class TestShmLifecycle:
    def test_segments_attachable_while_open_gone_after_close(self, rng):
        keys = service_keys(rng, n=3000)
        service = IndexService.build(
            keys, family="lipp", n_shards=4, executor="process"
        )
        names = service.router.shm_segment_names()
        assert names  # LIPP flat buffers are well past the inline threshold
        for name in names:
            seg = shared_memory.SharedMemory(name=name)
            seg.close()
        pids = [r.pid for r in service.executor_report()]
        service.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_no_leak_after_worker_crash(self, rng):
        keys = service_keys(rng, n=3000)
        spec = ExecutorSpec(kind="process", n_workers=2, n_replicas=2, timeout_s=20.0)
        service = IndexService.build(
            keys, family="btree", n_shards=2, executor=spec
        )
        os.kill(service.executor_report()[0].pid, signal.SIGKILL)
        service.lookup_many(keys[:100])  # ride through the failover
        names = service.router.shm_segment_names()
        service.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_lookup_after_close_raises(self, rng):
        keys = service_keys(rng, n=2000)
        service = IndexService.build(
            keys, family="btree", n_shards=2, executor="process"
        )
        service.close()
        with pytest.raises((ExecutorError, IndexStateError)):
            service.router.lookup_many(keys[:10])
