"""Immutable sorted run files: the store's only data container.

A *run* is one sorted, deduplicated ``(keys, values)`` batch frozen
into a compressed ``.npz`` (arrays ``keys`` and ``values``, both
int64 — the same layout :func:`repro.io.save_keys` writes, so a run
is inspectable with nothing but numpy).  A base written by a smoothed
build also holds ``csv``: the rebuilds CSV made on it
(:meth:`repro.core.csv_algorithm.CsvReport.decisions`), which a
reopen replays instead of smoothing again.  Runs are written once and
never modified; compaction replaces whole files, it never patches
one.

Crash safety is write-temp-then-rename: the payload is serialised to
memory, hashed (sha256), written to ``<name>.tmp``, fsynced, and
``os.replace``d into place, then the directory entry is fsynced.  A
crash at any point leaves either no file or a complete one — a
``.tmp`` straggler is garbage a later open sweeps away.  The file
only becomes *live* when a manifest commit references it, so the
checksum in the manifest always describes a fully written file.
"""

from __future__ import annotations

import hashlib
import io
import os
from pathlib import Path

import numpy as np

from ..core.exceptions import IndexStateError, StoreCorruptionError
from ..indexes.base import dedupe_last_wins
from .faults import crashpoint

__all__ = [
    "StoreCorruptionError",
    "fsync_dir",
    "read_base_file",
    "read_run_file",
    "sorted_unique_run",
    "write_run_file",
]


def fsync_dir(path: Path) -> None:
    """fsync a directory so a rename inside it is itself durable."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def sorted_unique_run(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort a write batch by key, last occurrence winning duplicates."""
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    if keys.shape != values.shape:
        raise IndexStateError("run values must parallel keys")
    return dedupe_last_wins(keys, values)


def write_run_file(
    directory: Path,
    name: str,
    keys: np.ndarray,
    values: np.ndarray,
    csv: np.ndarray | None = None,
) -> tuple[str, int]:
    """Atomically write one run file; returns ``(checksum, size_bytes)``.

    *keys* must already be sorted unique int64 (see
    :func:`sorted_unique_run`); the payload is built in memory first
    so the checksum describes exactly the bytes that land on disk.
    *csv*, when given, is stored beside them as the ``csv`` array.
    """
    buffer = io.BytesIO()
    extra = {} if csv is None else {"csv": csv}
    np.savez_compressed(buffer, keys=keys, values=values, **extra)
    payload = buffer.getvalue()
    checksum = "sha256:" + hashlib.sha256(payload).hexdigest()
    final = directory / name
    tmp = directory / (name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    crashpoint("run.after_tmp")
    os.replace(tmp, final)
    fsync_dir(directory)
    crashpoint("run.after_rename")
    return checksum, len(payload)


def read_run_file(
    directory: Path, name: str, checksum: str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Load one run file, verifying its manifest checksum when given."""
    return read_base_file(directory, name, checksum)[:2]


def read_base_file(
    directory: Path, name: str, checksum: str | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """:func:`read_run_file`, plus the ``csv`` array as stored (None
    when the file has none)."""
    path = directory / name
    try:
        payload = path.read_bytes()
    except OSError as exc:
        raise StoreCorruptionError(f"run file {name} unreadable: {exc}") from exc
    if checksum is not None:
        actual = "sha256:" + hashlib.sha256(payload).hexdigest()
        if actual != checksum:
            raise StoreCorruptionError(
                f"run file {name} checksum mismatch: manifest {checksum}, file {actual}"
            )
    with np.load(io.BytesIO(payload)) as data:
        keys = data["keys"].astype(np.int64)
        values = data["values"].astype(np.int64)
        csv = data["csv"] if "csv" in data.files else None
    return keys, values, csv
