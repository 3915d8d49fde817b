"""The manifest: one JSON file naming everything that is durable.

``MANIFEST.json`` is the store's single commit point.  It carries a
**monotonic generation number** and the authoritative list of live
artefacts — per-shard base snapshots and the sorted runs stacked on
top of them — each with a sha256 checksum of its exact file bytes.
State changes (a flush, a compaction, a full snapshot) prepare their
files first and then *commit* by atomically replacing the manifest:
write ``MANIFEST.json.tmp``, fsync, ``os.replace``, fsync the
directory.  A crash before the replace leaves the previous
generation fully intact (new files are unreferenced orphans, swept on
the next open); a crash after it leaves the new generation fully
intact (replaced files are unreferenced and likewise swept).  There
is no observable in-between, which is what makes "any prefix of
completed generations reopens cleanly" a testable property rather
than a hope.

The schema is versioned (`format_version`) and documented for
out-of-library inspection in ``docs/PERSISTENCE.md``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from ..core.exceptions import IndexStateError
from .faults import crashpoint
from .runs import StoreCorruptionError, fsync_dir

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "Manifest",
    "RunMeta",
    "commit_manifest",
    "load_manifest",
]

#: Bumped when the on-disk layout changes incompatibly.
FORMAT_VERSION = 1

#: The manifest file name inside a data directory.
MANIFEST_NAME = "MANIFEST.json"


def _field(obj, section: str, name: str, convert, *default):
    """``convert(obj[name])``, or :class:`StoreCorruptionError` naming
    the field: a data directory is operator-supplied input."""
    try:
        if default and name not in obj:
            return default[0]
        return convert(obj[name])
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreCorruptionError(
            f"manifest field '{section}{name}' is missing or malformed ({exc!r})"
        ) from exc


def _list_of(convert):
    def convert_list(value) -> tuple:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        return tuple(convert(item) for item in value)

    return convert_list


@dataclass(frozen=True)
class RunMeta:
    """One live on-disk artefact, as recorded in the manifest.

    Attributes:
        name: file name inside the data directory.
        kind: ``"base"`` (a shard's full snapshot) or ``"run"`` (a
            sorted delta stacked on top of the base).
        shard: owning shard number.
        generation: the manifest generation whose commit made this
            file live — replay order within a shard.
        n_keys / min_key / max_key: run statistics (0/-1/-1 for an
            empty artefact), letting operators reason about overlap
            without opening the file.
        checksum: ``sha256:<hex>`` of the exact file bytes.
        size_bytes: file size, for compaction bin-packing.
    """

    name: str
    kind: str
    shard: int
    generation: int
    n_keys: int
    min_key: int
    max_key: int
    checksum: str
    size_bytes: int

    def to_json(self) -> dict:
        """Serialise to the manifest's ``artefacts[*]`` JSON shape."""
        return {
            "name": self.name,
            "kind": self.kind,
            "shard": self.shard,
            "generation": self.generation,
            "n_keys": self.n_keys,
            "min_key": self.min_key,
            "max_key": self.max_key,
            "checksum": self.checksum,
            "size_bytes": self.size_bytes,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RunMeta":
        get = partial(_field, obj, "artefacts[].")
        return cls(
            name=get("name", str),
            kind=get("kind", str),
            shard=get("shard", int),
            generation=get("generation", int),
            n_keys=get("n_keys", int),
            min_key=get("min_key", int),
            max_key=get("max_key", int),
            checksum=get("checksum", str),
            size_bytes=get("size_bytes", int),
        )


@dataclass(frozen=True)
class Manifest:
    """The committed state of one data directory (see module doc).

    ``service`` carries what :meth:`IndexService.open_snapshot` needs
    to rebuild the serving facade without the original dataset:
    family, shard boundaries and per-shard smoothing alphas.  A
    ``mode`` key, written by earlier versions, is ignored on read.
    """

    generation: int
    family: str
    n_shards: int
    boundaries: tuple[int, ...]
    alphas: tuple[float | None, ...]
    artefacts: tuple[RunMeta, ...] = ()
    format_version: int = FORMAT_VERSION
    updated_ts: float = 0.0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def base_for(self, shard: int) -> RunMeta | None:
        """The shard's base snapshot (None for a never-snapshotted shard)."""
        for meta in self.artefacts:
            if meta.kind == "base" and meta.shard == shard:
                return meta
        return None

    def runs_for(self, shard: int) -> tuple[RunMeta, ...]:
        """The shard's delta runs in commit (replay) order."""
        return tuple(
            sorted(
                (m for m in self.artefacts if m.kind == "run" and m.shard == shard),
                key=lambda m: m.generation,
            )
        )

    def runs_outstanding(self) -> int:
        """Delta runs not yet folded into a base, across all shards."""
        return sum(1 for m in self.artefacts if m.kind == "run")

    def file_names(self) -> set[str]:
        """Every file the manifest references."""
        return {m.name for m in self.artefacts}

    # ------------------------------------------------------------------
    # Transitions (pure: return the next manifest, caller commits)
    # ------------------------------------------------------------------
    def with_artefacts(
        self,
        add: tuple[RunMeta, ...] = (),
        remove_names: frozenset[str] | set[str] = frozenset(),
    ) -> "Manifest":
        """Next generation with *add* appended and *remove_names* gone."""
        kept = tuple(m for m in self.artefacts if m.name not in remove_names)
        return replace(
            self,
            generation=self.generation + 1,
            artefacts=kept + tuple(add),
            updated_ts=time.time(),
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Serialise to the MANIFEST.json document shape (version 1)."""
        return {
            "format_version": self.format_version,
            "generation": self.generation,
            "updated_ts": self.updated_ts,
            "service": {
                "family": self.family,
                "n_shards": self.n_shards,
                "boundaries": list(self.boundaries),
                "alphas": list(self.alphas),
            },
            "artefacts": [m.to_json() for m in self.artefacts],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Manifest":
        if not isinstance(obj, dict):
            raise StoreCorruptionError(
                f"manifest is a JSON {type(obj).__name__}, not an object"
            )
        top = partial(_field, obj, "")
        version = top("format_version", int, -1)
        if version != FORMAT_VERSION:
            raise IndexStateError(
                f"manifest format_version {version} unsupported "
                f"(this library reads version {FORMAT_VERSION})"
            )
        service = partial(_field, top("service", dict), "service.")
        n_shards = service("n_shards", int)
        boundaries = service("boundaries", _list_of(int))
        alphas = service("alphas", _list_of(lambda a: None if a is None else float(a)))
        # Checked once here, so no reader needs a fallback for a short list.
        for name, entries, wanted in (
            ("boundaries", boundaries, n_shards - 1),
            ("alphas", alphas, n_shards),
        ):
            if len(entries) != wanted:
                raise StoreCorruptionError(
                    f"manifest field 'service.{name}' has {len(entries)} entries; "
                    f"{n_shards} shards need {wanted}"
                )
        return cls(
            generation=top("generation", int),
            family=service("family", str),
            n_shards=n_shards,
            boundaries=boundaries,
            alphas=alphas,
            artefacts=top("artefacts", _list_of(RunMeta.from_json)),
            format_version=version,
            updated_ts=top("updated_ts", float, 0.0),
        )


def load_manifest(directory: str | Path) -> Manifest | None:
    """The committed manifest of *directory*, or None if uninitialised."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        return Manifest.from_json(json.loads(path.read_text(encoding="utf-8")))
    except StoreCorruptionError as exc:
        raise StoreCorruptionError(f"{path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # truncated, empty, not UTF-8
        raise StoreCorruptionError(f"{path}: not a JSON document ({exc})") from exc


def commit_manifest(directory: str | Path, manifest: Manifest) -> Manifest:
    """Atomically publish *manifest* as the directory's committed state.

    The previous manifest (if any) must carry a strictly smaller
    generation — the monotonicity that makes "reopen at any prefix"
    meaningful.  Returns the manifest for chaining.
    """
    directory = Path(directory)
    previous = load_manifest(directory)
    if previous is not None and previous.generation >= manifest.generation:
        raise IndexStateError(
            f"manifest generation must grow: committed {previous.generation}, "
            f"attempted {manifest.generation}"
        )
    payload = json.dumps(manifest.to_json(), indent=2, sort_keys=True) + "\n"
    tmp = directory / (MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    crashpoint("manifest.before_rename")
    os.replace(tmp, directory / MANIFEST_NAME)
    fsync_dir(directory)
    crashpoint("manifest.after_rename")
    return manifest
