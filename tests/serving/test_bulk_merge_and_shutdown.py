"""Service-level tests for the bulk merge path and shutdown semantics.

The staleness-triggered merge drains write buffers through every
served family's ``bulk_insert_many``; these tests pin (1) content
parity between merge-via-bulk and the per-key merge-via-loop, and (2)
that ``close`` is idempotent and leaves the service usable in process.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.indexes import CSV_FAMILIES
from repro.serving.service import IndexService
from repro.store import DurableStore


def _seed_keys(rng, n=3_000):
    return np.unique(rng.integers(0, 10**7, n))


def _expected_contents(keys, batches):
    expected = {int(k): int(k) for k in keys}
    for bkeys, bvals in batches:
        expected.update(zip(bkeys.tolist(), bvals.tolist()))
    return expected


class TestMergeViaBulk:
    @pytest.mark.parametrize("family", CSV_FAMILIES)
    def test_merge_via_bulk_matches_merge_via_loop(self, family, rng, insert_each):
        """The bulk-drained merge stores exactly what a per-key
        ``insert`` merge stores: every written key resolves to its
        last value after a flush, on every shard."""
        keys = _seed_keys(rng)
        bulk_service = IndexService.build(
            keys, family=family, n_shards=3, staleness_threshold=0.05
        )
        loop_service = IndexService.build(
            keys, family=family, n_shards=3, staleness_threshold=0.05
        )
        # Force the comparison service's merges down the per-key path.
        for shard in loop_service.router.shards:
            if shard is not None:
                shard.bulk_insert_many = functools.partial(insert_each, shard)
        batches = []
        for round_no in range(4):
            bkeys = rng.integers(0, 10**7, 900)
            bvals = rng.integers(0, 1 << 40, 900)
            batches.append((bkeys, bvals))
            bulk_service.insert_many(bkeys, bvals)
            loop_service.insert_many(bkeys, bvals)
        bulk_service.flush()
        loop_service.flush()
        assert bulk_service.stats.merges > 0
        expected = _expected_contents(keys, batches)
        probe = np.asarray(sorted(expected), dtype=np.int64)
        want = np.asarray([expected[int(k)] for k in probe], dtype=np.int64)
        got_bulk = bulk_service.lookup_many(probe)
        got_loop = loop_service.lookup_many(probe)
        assert bool(np.all(got_bulk.found))
        assert bool(np.all(got_loop.found))
        assert np.array_equal(got_bulk.values, want)
        assert np.array_equal(got_loop.values, want)
        assert bulk_service.n_keys == loop_service.n_keys == probe.size
        bulk_service.close()
        loop_service.close()


class TestShutdown:
    def test_close_is_idempotent(self, rng, tmp_path):
        keys = _seed_keys(rng, 1_500)
        service = IndexService.build(
            keys, family="alex", n_shards=2, staleness_threshold=10.0,
            store=DurableStore(tmp_path / "data"),
        )
        service.insert_many(rng.integers(0, 10**7, 500))
        flushes = []
        real_flush = service.flush_durable

        def counting_flush():
            flushes.append(1)
            return real_flush()

        service.flush_durable = counting_flush
        service.close()
        assert service.stats.flushed_keys == sum(service.buffered_counts()) > 0
        service.close()  # second close: a no-op
        assert len(flushes) == 1

    def test_flush_after_close_still_merges_synchronously(self, rng):
        """Late writes after close still buffer and merge (the
        service object stays usable in process)."""
        keys = _seed_keys(rng, 1_000)
        service = IndexService.build(
            keys, family="alex", n_shards=2, staleness_threshold=10.0,
        )
        service.close()
        bkeys = np.unique(rng.integers(0, 10**7, 300))
        service.insert_many(bkeys, bkeys + 7)
        service.flush()
        got = service.lookup_many(bkeys)
        assert bool(np.all(got.found))
        assert np.array_equal(got.values, bkeys + 7)
