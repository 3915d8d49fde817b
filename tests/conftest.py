"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import FIG2_TOY_KEYS


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def toy_keys() -> np.ndarray:
    """The 10-key running example of Fig. 2 (see datasets.synthetic)."""
    return FIG2_TOY_KEYS.copy()


@pytest.fixture()
def small_keys(rng: np.random.Generator) -> np.ndarray:
    """~300 unique sorted keys with mixed local density."""
    return np.unique(
        np.concatenate(
            [
                rng.integers(0, 5_000, 200),
                50_000 + rng.integers(0, 500, 120),
                (10**7 + rng.lognormal(5, 1.5, 150)).astype(np.int64),
            ]
        )
    )


@pytest.fixture()
def clustered_keys(rng: np.random.Generator) -> np.ndarray:
    """~3k keys in lognormal clusters (hard, deep-index shape)."""
    centers = rng.uniform(0, 2**38, 12)
    return np.unique(
        np.concatenate([(c + rng.lognormal(7, 1.8, 300)).astype(np.int64) for c in centers])
    )


def sorted_unique(rng: np.random.Generator, n: int, span: int) -> np.ndarray:
    """Helper used by hypothesis-free randomised tests."""
    return np.unique(rng.integers(0, span, n))


def _insert_each(index, keys, values=None) -> None:
    """Per-key ``insert`` loop in batch order (values default to keys).

    The reference every ``bulk_insert_many`` is checked against: run it
    on a twin built from the same keys and compare contents.
    """
    keys = np.asarray(keys)
    values = keys if values is None else np.asarray(values)
    assert values.shape == keys.shape
    for key, value in zip(keys.tolist(), values.tolist()):
        index.insert(key, value)


@pytest.fixture(scope="session")
def insert_each():
    """:func:`_insert_each` (session-scoped so ``@given`` tests may take it)."""
    return _insert_each


def _range_pairs(arrays) -> list[tuple[int, int]]:
    """A range answer ``(keys, values)`` as the list of ``(key, value)``
    pairs every range oracle is written in — after checking that it is
    two parallel 1-D int64 arrays in strictly ascending key order."""
    keys, values = arrays
    assert isinstance(keys, np.ndarray) and isinstance(values, np.ndarray)
    assert keys.dtype == values.dtype == np.int64
    assert keys.ndim == 1 and keys.shape == values.shape
    assert bool(np.all(keys[1:] > keys[:-1]))
    return list(zip(keys.tolist(), values.tolist()))


@pytest.fixture(scope="session")
def range_pairs():
    """:func:`_range_pairs` (session-scoped so ``@given`` tests may take it)."""
    return _range_pairs
