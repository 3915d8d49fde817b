"""Mixed read/write service workload driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import InvalidKeysError
from repro.serving import IndexService
from repro.workloads import run_service_workload


@pytest.fixture()
def service(rng):
    keys = np.unique(rng.integers(0, 10**7, 1200))
    svc = IndexService.build(keys, family="sorted_array", n_shards=4)
    yield keys, svc
    svc.close()


class TestServiceWorkload:
    def test_mixed_workload_end_to_end(self, service):
        keys, svc = service
        report = run_service_workload(
            svc, keys, n_ops=2_000, read_fraction=0.8, batch_size=500, seed=1
        )
        assert report.n_ops == 2_000
        assert report.n_reads + report.n_writes == 2_000
        assert report.n_batches == 4
        # Reads sample stored or previously written keys: all hits.
        assert report.read_hit_rate == 1.0
        assert report.ops_per_second > 0
        assert svc.stats.n_lookups == report.n_reads
        assert svc.stats.n_inserts == report.n_writes

    def test_read_only_and_write_only(self, service):
        keys, svc = service
        reads = run_service_workload(svc, keys, n_ops=500, read_fraction=1.0)
        assert reads.n_writes == 0 and reads.n_reads == 500
        writes = run_service_workload(svc, keys, n_ops=200, read_fraction=0.0)
        assert writes.n_reads == 0 and writes.n_writes == 200

    def test_invalid_parameters(self, service):
        keys, svc = service
        with pytest.raises(InvalidKeysError):
            run_service_workload(svc, keys, n_ops=100, read_fraction=1.5)
