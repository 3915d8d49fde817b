"""The ``csv`` record of a base file: CSV's rebuilds, built by on reopen.

A smoothed build writes, beside each shard's keys, the rebuilds CSV
made (:meth:`CsvReport.decisions`); :meth:`DurableStore.build_shard`
hands them to the family's ``build``, which lays each recorded subtree
out once, by its row.  A record that does not fit those keys is a
:class:`StoreCorruptionError` naming the base file, the row and the
column — raised by the build, and, for what can be checked without
building an index, by :meth:`DurableStore.verify`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.csv_algorithm import DECISION_COLUMNS, CsvConfig, apply_csv
from repro.datasets import generate
from repro.indexes import INDEX_FAMILIES, adapter_for
from repro.store import DurableStore, StoreCorruptionError

BASE = "base-s0000-g00000001.npz"


@pytest.fixture(params=["lipp", "sali", "alex"])
def family(request) -> str:
    return request.param


@pytest.fixture()
def keyset(family):
    """Keys, values and the decisions CSV made on an index of them."""
    keys = generate("facebook", 2_000, 11)
    values = keys * 3
    index = INDEX_FAMILIES[family].build(keys, values)
    decisions = apply_csv(adapter_for(index), CsvConfig(alpha=0.1)).decisions()
    assert decisions.shape[0] > 1
    return keys, values, decisions


def one_shard_store(path, family, keys, values, record) -> DurableStore:
    store = DurableStore(path)
    store.initialize(family, [], [0.1], [(keys, values)], [record])
    return store


def column(name: str) -> int:
    return DECISION_COLUMNS.index(name)


def test_decisions_hold_one_row_per_surviving_rebuild(family, keyset):
    keys, __, decisions = keyset
    assert decisions.dtype == np.int64
    assert decisions.shape[1] == len(DECISION_COLUMNS) == 7
    starts = np.searchsorted(keys, decisions[:, column("first_key")])
    assert np.array_equal(keys[starts], decisions[:, column("first_key")])
    assert bool(np.all(decisions[:, column("level")] >= 2))
    assert bool(np.all(decisions[:, column("m")] > decisions[:, column("n_keys")]))


def test_build_shard_replays_a_record(family, keyset, tmp_path):
    keys, values, decisions = keyset
    store = one_shard_store(tmp_path / "data", family, keys, values, decisions)
    assert store.verify() == 1
    index, replayed = store.build_shard(0, INDEX_FAMILIES[family])
    assert replayed
    smoothed = INDEX_FAMILIES[family].build(keys, values)
    apply_csv(adapter_for(smoothed), CsvConfig(alpha=0.1))
    probe = np.concatenate([keys, keys + 1])
    got, want = index.lookup_many(probe), smoothed.lookup_many(probe)
    for field in ("found", "values", "levels", "search_steps"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_an_empty_record_replays_no_rebuild(family, keyset, tmp_path):
    keys, values, __ = keyset
    empty = np.zeros((0, len(DECISION_COLUMNS)), dtype=np.int64)
    store = one_shard_store(tmp_path / "data", family, keys, values, empty)
    index, replayed = store.build_shard(0, INDEX_FAMILIES[family])
    assert replayed
    assert index.node_levels() == INDEX_FAMILIES[family].build(keys, values).node_levels()


def tampered(decisions: np.ndarray, name: str, value) -> np.ndarray:
    """*decisions* with row 1's *name* set to *value* (a float for the
    model columns, stored as its bits)."""
    bad = decisions.copy()
    if isinstance(value, float):
        value = np.float64(value).view(np.int64)
    bad[1, column(name)] = value
    return bad


def nested(decisions: np.ndarray) -> np.ndarray:
    """*decisions* with row 1 recording row 0's subtree again, one
    level down: its key slice lies inside row 0's."""
    bad = decisions.copy()
    bad[1] = decisions[0]
    bad[1, column("level")] += 1
    return bad


#: (case, record from (keys, decisions), message) for the faults that
#: are visible without an index: verify() and the build both refuse.
STATIC_FAULTS = [
    ("dtype", lambda k, d: d.astype(np.float64), r"csv: dtype float64, expected int64"),
    ("shape", lambda k, d: d[:, :6], r"csv: shape \(\d+, 6\), expected \(n, 7\)"),
    ("first_key not stored", lambda k, d: tampered(d, "first_key", d[1, 0] + 1),
     r"csv row 1 column 'first_key': not a stored key"),
    ("slice out of range", lambda k, d: tampered(d, "n_keys", k.size),
     r"csv row 1 column 'n_keys': key slice runs out"),
    ("level at the root", lambda k, d: tampered(d, "level", 1),
     r"csv row 1 column 'level': not below the root"),
    ("slice inside another row's", lambda k, d: nested(d),
     r"csv row 1 column 'first_key': key slice inside another row's"),
    ("m <= n_keys", lambda k, d: tampered(d, "m", d[1, column("n_keys")]),
     r"csv row 1 column 'm': not in \(n_keys, 2 \* n_keys\]"),
    ("m > 2 * n_keys", lambda k, d: tampered(d, "m", 2 * d[1, column("n_keys")] + 1),
     r"csv row 1 column 'm': not in \(n_keys, 2 \* n_keys\]"),
    ("slope not finite", lambda k, d: tampered(d, "slope", float("nan")),
     r"csv row 1 column 'slope': not finite"),
    ("intercept not finite", lambda k, d: tampered(d, "intercept", float("inf")),
     r"csv row 1 column 'intercept': not finite"),
]


@pytest.mark.parametrize("make, message", [f[1:] for f in STATIC_FAULTS],
                         ids=[f[0] for f in STATIC_FAULTS])
def test_verify_and_replay_refuse_a_bad_record(family, keyset, tmp_path, make, message):
    keys, values, decisions = keyset
    record = make(keys, decisions)
    if "not a stored key" in message:
        assert record[1, 0] not in keys
    store = one_shard_store(tmp_path / "data", family, keys, values, record)
    with pytest.raises(StoreCorruptionError, match=f"{BASE}: {message}"):
        store.verify()
    with pytest.raises(StoreCorruptionError, match=f"{BASE}: {message}"):
        store.build_shard(0, INDEX_FAMILIES[family])


#: Faults only the build shows: verify() passes, the build refuses.
STRUCTURAL_FAULTS = [
    ("no subtree at level", lambda d: tampered(d, "level", 60),
     r"csv row 1 column 'level': no subtree-rooting node at level 60"),
    ("one key short", lambda d: tampered(d, "n_keys", d[1, column("n_keys")] - 1),
     r"csv row 1 column 'n_keys': the subtree at level \d+ does not hold \d+ keys"),
    ("one key over", lambda d: tampered(d, "n_keys", d[1, column("n_keys")] + 1),
     r"csv row 1 column 'n_keys': the subtree at level \d+ does not hold \d+ keys"),
]


@pytest.mark.parametrize("make, message", [f[1:] for f in STRUCTURAL_FAULTS],
                         ids=[f[0] for f in STRUCTURAL_FAULTS])
def test_replay_refuses_a_record_the_index_does_not_fit(family, keyset, tmp_path, make, message):
    keys, values, decisions = keyset
    record = make(decisions)
    if record[1, column("m")] <= record[1, column("n_keys")]:
        record[1, column("m")] = record[1, column("n_keys")] + 1
    store = one_shard_store(tmp_path / "data", family, keys, values, record)
    assert store.verify() == 1
    with pytest.raises(StoreCorruptionError, match=f"{BASE}: {message}"):
        store.build_shard(0, INDEX_FAMILIES[family])


def test_runs_on_top_keep_the_record(family, keyset, tmp_path):
    """A run outstanding: the base still builds from its record (the
    record describes the base alone), and the run is the caller's to
    put back in a write buffer (``load_runs``)."""
    keys, values, decisions = keyset
    store = one_shard_store(tmp_path / "data", family, keys, values, decisions)
    fresh = np.asarray([int(keys[-1]) + 1, int(keys[-1]) + 2], dtype=np.int64)
    store.append_runs({0: (fresh, fresh)})
    index, replayed = store.build_shard(0, INDEX_FAMILIES[family])
    assert replayed
    assert index.n_keys == keys.size
    [(run_keys, run_values)] = store.load_runs(0)
    assert np.array_equal(run_keys, fresh) and np.array_equal(run_values, fresh)
