"""SQLite-WAL runtime store: the op log of writes that arrived over the wire.

The index stack is deliberately memory-resident — shards are rebuilt
from the dataset (or the durable store) at startup — so a write that
arrived *over the wire* and was not yet flushed would vanish with the
process.  The runtime store closes that gap with one table in one
SQLite database in WAL mode (readers never block the writer, commits
are a single fsync of the log): an **append-only op log** of every
accepted write batch, recorded durably *before* it is applied to the
service.  On reopen, :meth:`RuntimeStore.iter_ops` hands the ops back
in arrival order; re-applying them through ``insert_many`` is
idempotent (last write wins on equal keys), so replay-after-crash is
at-least-once and converges.

Nothing else lives here: counters are per process and restart at 0.
A file an older version wrote may also hold ``meta``, ``counters`` or
``query_cache`` tables; they are neither read nor touched.

Arrays cross the boundary as raw little-endian int64 BLOBs
(``ndarray.tobytes`` / ``np.frombuffer``) — bit-exact, no JSON float
round-tripping.  All methods are thread-safe: the HTTP worker pool
records and prunes from executor threads.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["OpRecord", "RuntimeStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS op_log (
    seq    INTEGER PRIMARY KEY AUTOINCREMENT,
    ts     REAL NOT NULL,
    op     TEXT NOT NULL,
    n_keys INTEGER NOT NULL,
    keys   BLOB NOT NULL,
    vals   BLOB
);
"""


@dataclass(frozen=True)
class OpRecord:
    """One logged insert batch, as stored."""

    seq: int
    keys: np.ndarray
    values: np.ndarray | None


def _to_blob(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<i8").tobytes()


def _from_blob(blob: bytes) -> np.ndarray:
    return np.frombuffer(blob, dtype="<i8").astype(np.int64)


class RuntimeStore:
    """One server's op log (see module docstring)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._closed = False

    def journal_mode(self) -> str:
        """The active SQLite journal mode (``"wal"`` when supported)."""
        row = self._conn.execute("PRAGMA journal_mode").fetchone()
        return str(row[0]).lower()

    def op_count(self) -> int:
        """Rows currently in the op log."""
        return int(self._conn.execute("SELECT COUNT(*) FROM op_log").fetchone()[0])

    def record_op(self, keys: np.ndarray, values: np.ndarray | None = None) -> int:
        """Append one insert batch to the log; returns its sequence no.

        Called *before* the batch is applied to the service, so a
        crash between the two leaves a replayable record rather than
        a lost write.  The row's ``op`` / ``ts`` columns are filled
        (``'insert'``, wall time) so older readers of the file still
        parse it; nothing here reads them back.
        """
        keys = np.asarray(keys, dtype=np.int64)
        blob_vals = None if values is None else _to_blob(np.asarray(values))
        with self._lock:
            cur = self._conn.execute(
                "INSERT INTO op_log (ts, op, n_keys, keys, vals) "
                "VALUES (?, 'insert', ?, ?, ?)",
                (time.time(), int(keys.size), _to_blob(keys), blob_vals),
            )
            self._conn.commit()
            return int(cur.lastrowid)

    def iter_ops(self) -> list[OpRecord]:
        """Every logged op in arrival (sequence) order."""
        rows = self._conn.execute(
            "SELECT seq, keys, vals FROM op_log ORDER BY seq"
        ).fetchall()
        return [
            OpRecord(
                seq=int(seq),
                keys=_from_blob(keys),
                values=None if vals is None else _from_blob(vals),
            )
            for seq, keys, vals in rows
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
        log stops growing without bound.  The ``DELETE`` appends its
        pages to the WAL, so a checkpoint then folds the WAL into the
        database file and truncates it: a prune never grows the
        directory.
        """
        with self._lock:
            cur = self._conn.execute(
                "DELETE FROM op_log WHERE seq <= ?", (int(seq),)
            )
            self._conn.commit()
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            return int(cur.rowcount)

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
