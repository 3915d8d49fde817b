"""Shared fixtures for the durable-store suite.

Every test here drives a :class:`~repro.store.DurableStore` rooted in
a pytest ``tmp_path``; the helpers build small deterministic two-shard
stores so crash/compaction assertions can name exact keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.store import DurableStore

FAMILY = "alex"
N_SHARDS = 2
SPLIT = 50_000


def shard_of(keys: np.ndarray) -> np.ndarray:
    """The store fixture's routing rule: one boundary at SPLIT."""
    return (np.asarray(keys) >= SPLIT).astype(np.int64)


def base_arrays(rng: np.random.Generator, n: int = 400):
    """Two sorted-unique shard (keys, values) pairs below/above SPLIT."""
    lo = np.unique(rng.integers(0, SPLIT, n))
    hi = np.unique(rng.integers(SPLIT, SPLIT * 2, n))
    return [(lo, lo * 3), (hi, hi * 3)]


@pytest.fixture()
def store(tmp_path, rng) -> DurableStore:
    """An initialized two-shard store at generation 1."""
    s = DurableStore(tmp_path / "data")
    s.initialize(
        family=FAMILY,
        boundaries=[SPLIT],
        alphas=[None, None],
        shard_arrays=base_arrays(rng),
    )
    return s


def flush_batch(rng: np.random.Generator, shard: int, n: int = 50):
    """A fresh (keys, values) write batch landing in *shard*."""
    lo = 0 if shard == 0 else SPLIT
    keys = np.unique(rng.integers(lo, lo + SPLIT, n))
    return keys, keys * 7


def logical_state(store: DurableStore) -> list[tuple[bytes, bytes]]:
    """Every shard's merged arrays as raw bytes — bit-parity currency."""
    out = []
    for shard in range(store.manifest.n_shards):
        k, v = store.load_shard_arrays(shard)
        out.append((k.tobytes(), v.tobytes()))
    return out
