"""SQLite-WAL runtime store: the server's state that survives restarts.

The index stack is deliberately memory-resident — shards are rebuilt
from the dataset at startup — so anything that arrived *over the
wire* would vanish with the process.  The runtime store closes that
gap with one SQLite database in WAL mode (readers never block the
writer, commits are a single fsync of the log) holding two kinds of
state:

* **op counters** — cumulative served-operation totals (HTTP requests
  per route, keys looked up / inserted, plus the service's own
  ``ServiceStats`` fields), upserted as they change and restored on
  reopen so totals keep counting across restarts.
* **append-only op log** — every accepted write batch, recorded
  durably *before* it is applied to the service.  On reopen,
  :meth:`replay` hands the ops back in arrival order; re-applying
  them through ``insert_many`` is idempotent (last write wins on
  equal keys), so replay-after-crash is at-least-once and converges.

Arrays cross the boundary as raw little-endian int64 BLOBs
(``ndarray.tobytes`` / ``np.frombuffer``) — bit-exact, no JSON float
round-tripping.  All methods are thread-safe: the HTTP worker pool
records ops from executor threads while the event loop flushes
counters.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

__all__ = ["OpRecord", "RuntimeState", "RuntimeStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS counters (
    name  TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS op_log (
    seq    INTEGER PRIMARY KEY AUTOINCREMENT,
    ts     REAL NOT NULL,
    op     TEXT NOT NULL,
    n_keys INTEGER NOT NULL,
    keys   BLOB NOT NULL,
    vals   BLOB
);
"""

#: Bumped when the on-disk layout changes incompatibly.
STORE_VERSION = 1


@dataclass(frozen=True)
class OpRecord:
    """One logged write batch, as stored."""

    seq: int
    ts: float
    op: str
    keys: np.ndarray
    values: np.ndarray | None


@dataclass(frozen=True)
class RuntimeState:
    """Everything :meth:`RuntimeStore.replay` restores on reopen."""

    counters: dict[str, int] = field(default_factory=dict)
    ops: tuple[OpRecord, ...] = ()


def _to_blob(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<i8").tobytes()


def _from_blob(blob: bytes) -> np.ndarray:
    return np.frombuffer(blob, dtype="<i8").astype(np.int64)


class RuntimeStore:
    """One server's persistent runtime state (see module docstring)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        with self._lock:
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('version', ?)",
                (str(STORE_VERSION),),
            )
            self._conn.commit()
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def journal_mode(self) -> str:
        """The active SQLite journal mode (``"wal"`` when supported)."""
        row = self._conn.execute("PRAGMA journal_mode").fetchone()
        return str(row[0]).lower()

    def meta_get(self, key: str) -> str | None:
        """One metadata value, or None when unset."""
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else str(row[0])

    def meta_set(self, key: str, value: str) -> None:
        """Upsert one metadata key."""
        with self._lock:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (key, str(value)),
            )
            self._conn.commit()

    def op_count(self) -> int:
        """Rows currently in the op log."""
        return int(self._conn.execute("SELECT COUNT(*) FROM op_log").fetchone()[0])

    # ------------------------------------------------------------------
    # Op log
    # ------------------------------------------------------------------
    def record_op(
        self,
        op: str,
        keys: np.ndarray,
        values: np.ndarray | None = None,
        ts: float | None = None,
    ) -> int:
        """Append one write batch to the log; returns its sequence no.

        Called *before* the batch is applied to the service, so a
        crash between the two leaves a replayable record rather than
        a lost write.
        """
        keys = np.asarray(keys, dtype=np.int64)
        blob_vals = None if values is None else _to_blob(np.asarray(values))
        with self._lock:
            cur = self._conn.execute(
                "INSERT INTO op_log (ts, op, n_keys, keys, vals) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    time.time() if ts is None else float(ts),
                    str(op),
                    int(keys.size),
                    _to_blob(keys),
                    blob_vals,
                ),
            )
            self._conn.commit()
            return int(cur.lastrowid)

    def iter_ops(self) -> list[OpRecord]:
        """Every logged op in arrival (sequence) order."""
        rows = self._conn.execute(
            "SELECT seq, ts, op, keys, vals FROM op_log ORDER BY seq"
        ).fetchall()
        return [
            OpRecord(
                seq=int(seq),
                ts=float(ts),
                op=str(op),
                keys=_from_blob(keys),
                values=None if vals is None else _from_blob(vals),
            )
            for seq, ts, op, keys, vals in rows
        ]

    def last_seq(self) -> int:
        """Highest sequence number ever logged (0 when none).

        Reads the AUTOINCREMENT high-water mark, not ``MAX(seq)``, so
        the answer is stable across pruning: ops at or below it are
        exactly those that have existed, pruned or not.
        """
        row = self._conn.execute(
            "SELECT seq FROM sqlite_sequence WHERE name = 'op_log'"
        ).fetchone()
        return int(row[0]) if row is not None else 0

    def prune_op_log_upto(self, seq: int) -> int:
        """Drop every op with sequence ≤ *seq*; returns rows removed.

        The durability pruning hook: once the serving layer reports
        that everything through *seq* is captured in a committed
        store generation, those ops no longer need replaying and the
        log stops growing without bound.
        """
        with self._lock:
            cur = self._conn.execute(
                "DELETE FROM op_log WHERE seq <= ?", (int(seq),)
            )
            self._conn.commit()
            return int(cur.rowcount)

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def save_counters(self, mapping: Mapping[str, int]) -> None:
        """Upsert cumulative counters (only the keys given)."""
        if not mapping:
            return
        with self._lock:
            self._conn.executemany(
                "INSERT INTO counters (name, value) VALUES (?, ?) "
                "ON CONFLICT(name) DO UPDATE SET value = excluded.value",
                [(str(k), int(v)) for k, v in mapping.items()],
            )
            self._conn.commit()

    def load_counters(self) -> dict[str, int]:
        """Every persisted counter as a plain dict."""
        rows = self._conn.execute("SELECT name, value FROM counters").fetchall()
        return {str(name): int(value) for name, value in rows}

    # ------------------------------------------------------------------
    # Replay + lifecycle
    # ------------------------------------------------------------------
    def replay(self) -> RuntimeState:
        """The full restorable state: counters and ops."""
        return RuntimeState(
            counters=self.load_counters(),
            ops=tuple(self.iter_ops()),
        )

    def close(self) -> None:
        """Commit and close the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            self._conn.commit()
            self._conn.close()

    def __enter__(self) -> "RuntimeStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
