"""The service's one ledger: what reads observed, and what is derived.

``IndexService`` counts a served read once, by ``[shard, levels,
search_steps]``, and prices nothing on the way in.  Checked here
against oracles that never touch the ledger:

* the counts, against a per-key loop over the ``BatchQueryStats`` the
  service returned (every served family, memtable empty and non-empty,
  an empty shard);
* exactness under two threads reading at once through the front door;
* the derivation (``price_reads``), against the order statistics of
  one ``CostConstants.query_ns`` per read;
* the registry's pull: every ``service_*`` / ``shard_*`` name it
  exports equals the ledger at that instant, and a disabled registry
  exports none of them.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_model import CostConstants
from repro.indexes import CSV_FAMILIES
from repro.obs.health import price_reads
from repro.obs.metrics import MetricsRegistry
from repro.server import HttpIndexClient, ServerThread
from repro.serving import IndexService


def _keys(rng, n: int = 6_000) -> np.ndarray:
    return np.unique(rng.integers(0, 10**8, n).astype(np.int64))


def _ledger_classes(service: IndexService) -> Counter:
    observed = service.observed_reads()
    return Counter({
        (int(s), int(lv), int(st_)): int(observed[s, lv, st_])
        for s, lv, st_ in zip(*np.nonzero(observed))
    })


class TestLedgerAgainstPerKeyLoop:
    @pytest.mark.parametrize("family", sorted(CSV_FAMILIES))
    def test_counts_equal_a_per_key_loop(self, rng, family):
        keys = _keys(rng)
        service = IndexService.build(
            keys, family=family, n_shards=4, staleness_threshold=10.0,
            metrics=MetricsRegistry(enabled=False),
        )
        want: Counter = Counter()
        buffer_hits = 0
        buffered = np.empty(0, dtype=np.int64)
        for round_no in range(6):
            if round_no == 3:  # memtable non-empty from here on
                fresh = np.unique(rng.choice(keys, 60) + 1)
                buffered = fresh[fresh < service.router.boundaries[1]]
                service.insert_many(buffered)
                assert any(service.buffered_counts())
            q = np.concatenate(
                [buffered[:10], rng.choice(keys, 300), rng.choice(keys, 40) + 1])
            q = q[: int(rng.integers(20, q.size))]
            batch = service.lookup_many(q)
            shard_ids = service.router.shard_of(q)
            for i in range(q.size):  # the oracle: one key at a time
                stat = batch.stat(i)
                want[(int(shard_ids[i]), stat.levels, stat.search_steps)] += 1
                buffer_hits += stat.found and stat.levels == 0
        service.lookup_many(np.empty(0, dtype=np.int64))  # counts nothing
        assert _ledger_classes(service) == want
        assert service.stats.n_lookups == sum(want.values())
        assert service.stats.buffer_hits == buffer_hits > 0
        report = service.health_report()
        assert [row.queries for row in report.shards] == [
            sum(n for (shard, __, __), n in want.items() if shard == s) for s in range(4)
        ]

    def test_an_empty_shard_counts_its_misses(self, rng):
        keys = _keys(rng, 3_000)
        service = IndexService.build(keys, family="lipp", n_shards=3)
        # Empty shard 1 the way a reopen of a hollowed-out store does.
        service.router.replace_shard(1, None)
        in_gap = keys[(keys >= service.router.boundaries[0])
                      & (keys < service.router.boundaries[1])]
        assert in_gap.size
        batch = service.lookup_many(np.concatenate([in_gap[:50], keys[:50]]))
        assert not batch.found[:50].any() and batch.found[50:].all()
        want: Counter = Counter()
        shard_ids = service.router.shard_of(batch.keys)
        for i in range(batch.keys.size):
            want[(int(shard_ids[i]), int(batch.levels[i]), int(batch.search_steps[i]))] += 1
        assert _ledger_classes(service) == want
        report = service.health_report()
        assert report.shards[1].n_keys == 0 and report.shards[1].queries == 50
        assert report.total.queries == 100


class TestConcurrentReaders:
    def test_two_reader_threads_lose_no_count(self, rng):
        """The front door runs ``max_inflight`` = 2 batches at once;
        ``stats.n_lookups += m`` on two threads was a lost update
        waiting to happen.  The read-side books are written under one
        lock per batch, so the counts are exact."""
        keys = _keys(rng, 4_000)
        registry = MetricsRegistry(enabled=True)
        service = IndexService.build(keys, family="lipp", n_shards=3, metrics=registry)
        batches = [rng.choice(keys, int(rng.integers(1, 64))) for __ in range(400)]
        errors: list[BaseException] = []

        def reader(mine: list[np.ndarray], into: Counter) -> None:
            try:
                with HttpIndexClient(srv.host, srv.port) as client:
                    for q in mine:
                        reply = client.lookup(q.tolist())
                        shard_ids = service.router.shard_of(q)
                        into.update(zip(shard_ids.tolist(), reply["levels"],
                                        reply["search_steps"]))
            except BaseException as exc:  # noqa: BLE001 - reported by the test
                errors.append(exc)

        with ServerThread(service, registry=registry, max_inflight=2) as srv:
            seen = [Counter(), Counter()]
            threads = [
                threading.Thread(target=reader, args=(batches[i::2], seen[i]))
                for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors, errors
        want = seen[0] + seen[1]
        n = sum(b.size for b in batches)
        assert service.stats.n_lookups == n == sum(want.values())
        assert _ledger_classes(service) == want
        assert registry.counters()["service_lookups_total"] == n
        service.close()


@st.composite
def _observed(draw):
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 12)))
    cells = draw(st.lists(st.integers(0, 40), min_size=shape[0] * shape[1],
                          max_size=shape[0] * shape[1]))
    return np.asarray(cells, dtype=np.int64).reshape(shape)


class TestPricingIsExact:
    @settings(max_examples=200, deadline=None)
    @given(
        observed=_observed(),
        constants=st.builds(
            CostConstants,
            traversal_ns=st.floats(0.5, 200.0),
            search_ns=st.floats(0.5, 200.0),
            base_ns=st.floats(0.0, 100.0),
        ),
    )
    def test_priced_moments_are_the_per_key_order_statistics(self, observed, constants):
        levels, steps = np.nonzero(observed)
        per_key = np.asarray([
            constants.query_ns(int(lv), int(st_))
            for lv, st_ in zip(levels, steps)
            for __ in range(int(observed[lv, st_]))
        ])
        priced = price_reads(observed, constants)
        assert priced["queries"] == per_key.size
        if not per_key.size:
            assert set(priced.values()) == {0}
            return
        for q in (50, 90, 99):
            assert priced[f"p{q}_ns"] == np.percentile(per_key, q, method="inverted_cdf")
        assert priced["avg_ns"] == pytest.approx(per_key.mean(), rel=1e-12)
        assert priced["avg_levels"] == pytest.approx(
            np.repeat(levels, observed[levels, steps]).mean(), rel=1e-12
        )

    def test_integer_constants_price_the_mean_exactly(self, rng):
        keys = _keys(rng)
        with IndexService.build(keys, family="alex", n_shards=2) as service:
            batch = service.lookup_many(rng.choice(keys, 5_000))
            per_key = batch.simulated_ns(service.constants)
            total = service.health_report().total
        assert total.avg_ns == per_key.mean()
        assert total.avg_levels == batch.levels.mean()


class TestRegistryPulls:
    @staticmethod
    def _drive(service: IndexService, keys: np.ndarray, rng) -> None:
        service.lookup_many(rng.choice(keys, 1_500))
        service.insert_many(int(keys[-1]) + 1 + np.arange(900, dtype=np.int64))
        service.lookup_many(np.concatenate([rng.choice(keys, 500),
                                            int(keys[-1]) + 1 + np.arange(50)]))

    def test_every_exported_name_equals_the_ledger(self, rng):
        keys = _keys(rng)
        registry = MetricsRegistry(enabled=True)
        service = IndexService.build(
            keys, family="lipp", n_shards=4, staleness_threshold=10.0, metrics=registry,
        )
        self._drive(service, keys, rng)
        stats = dataclasses.asdict(service.stats)
        assert stats["merges"] == 0 and stats["buffer_hits"] == 50
        counters, gauges, histograms = (
            registry.counters(), registry.gauges(), registry.histograms())
        for name, value in stats.items():
            assert counters[f"service_{name.removeprefix('n_')}_total"] == value
        assert {k for k in counters if k.startswith("service_")} == {
            f"service_{name.removeprefix('n_')}_total" for name in stats
        }
        report = service.health_report()
        observed = service.observed_reads()
        for row in report.shards:
            label = f"{{shard={row.shard}}}"
            assert gauges[f"shard_staleness{label}"] == row.staleness
            assert gauges[f"shard_buffered_keys{label}"] == row.buffered
            hist = histograms[f"service_lookup_sim_ns{label}"]
            assert hist.count == row.queries == int(observed[row.shard].sum())
            assert hist.mean == pytest.approx(row.avg_ns)
            assert hist.min <= row.p50_ns <= row.p99_ns <= hist.max
        assert {k.split("{")[0] for k in (*gauges, *histograms)
                if k.startswith(("service_", "shard_"))} == {
            "shard_staleness", "shard_buffered_keys",
            "service_lookup_sim_ns", "service_merge_seconds",
        }
        # No push: the books move, the next read sees them.
        service.lookup_many(keys[:10])
        assert registry.counters()["service_lookups_total"] == stats["n_lookups"] + 10
        service.close()

    def test_a_disabled_registry_reads_zero(self, rng):
        keys = _keys(rng)
        registry = MetricsRegistry(enabled=False)
        service = IndexService.build(
            keys, family="lipp", n_shards=4, staleness_threshold=0.01, metrics=registry,
        )
        self._drive(service, keys, rng)
        assert service.stats.n_lookups == 2_050 and service.stats.merges > 0
        for view in (registry.counters(), registry.gauges()):
            assert not any(view.get(k, 0) for k in view), view
            assert not [k for k in view if k.startswith(("service_", "shard_"))]
        assert all(h.count == 0 for h in registry.histograms().values())
        # Enabling it later loses nothing: the ledger was kept all along.
        registry.enabled = True
        assert registry.counters()["service_lookups_total"] == 2_050
        service.close()
