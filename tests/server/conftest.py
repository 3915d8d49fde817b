"""Shared fixtures for the HTTP front-door suite.

Parity here is always *twin parity*: lookup cost telemetry (levels /
search_steps) depends on the write history — a buffered write answers
at levels 0, a merge restructures its shard — so a response can only
be compared against a second ``IndexService`` built from the same
keys and fed the same op sequence in-process.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry, scoped_registry
from repro.server import HttpIndexClient, ServerThread
from repro.serving import IndexService

FAMILY = "lipp"
N_SHARDS = 3


@pytest.fixture()
def keyset(rng) -> np.ndarray:
    return np.unique(rng.integers(0, 10**9, 2_000))


@pytest.fixture()
def twin_pair(keyset):
    """(client, twin, keys): an HTTP-served service and its twin."""
    registry = MetricsRegistry(enabled=True)
    with scoped_registry(registry):
        service = IndexService.build(keyset, family=FAMILY, n_shards=N_SHARDS)
        twin = IndexService.build(keyset, family=FAMILY, n_shards=N_SHARDS)
        try:
            with ServerThread(service, registry=registry) as srv:
                with HttpIndexClient(srv.host, srv.port) as client:
                    yield client, twin, keyset
        finally:
            service.close()
            twin.close()


class SlowService:
    """Delegating wrapper that makes every batch take ``delay_s``.

    Slowing the service (not the server) is how the admission tests
    force a real backlog with a handful of client threads.
    """

    def __init__(self, inner: IndexService, delay_s: float):
        self._inner = inner
        self._delay_s = delay_s

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def lookup_many(self, keys):
        time.sleep(self._delay_s)
        return self._inner.lookup_many(keys)

    def insert_many(self, keys, values=None):
        time.sleep(self._delay_s)
        return self._inner.insert_many(keys, values)
