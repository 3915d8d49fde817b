"""Run files and the manifest: the two primitives everything rests on.

A run file must round-trip bit-exactly and refuse to load when its
bytes drift from the manifest checksum; the manifest must serialise
losslessly, reject foreign format versions, and only ever commit with
a strictly growing generation.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.core.exceptions import IndexStateError
from repro.serving import IndexService
from repro.store import (
    DurableStore,
    FORMAT_VERSION,
    MANIFEST_NAME,
    Manifest,
    RunMeta,
    StoreCorruptionError,
    commit_manifest,
    load_manifest,
    read_run_file,
    sorted_unique_run,
    write_run_file,
)


class TestSortedUniqueRun:
    def test_sorts_ascending(self, rng):
        keys = rng.permutation(np.arange(100, dtype=np.int64))
        k, v = sorted_unique_run(keys, keys * 2)
        assert np.array_equal(k, np.arange(100))
        assert np.array_equal(v, k * 2)

    def test_last_write_wins_duplicates(self):
        keys = np.array([5, 3, 5, 3, 9], dtype=np.int64)
        vals = np.array([50, 30, 51, 31, 90], dtype=np.int64)
        k, v = sorted_unique_run(keys, vals)
        assert k.tolist() == [3, 5, 9]
        assert v.tolist() == [31, 51, 90]  # later occurrence won

    def test_repeated_keys_freeze_to_the_same_bytes(self, tmp_path, rng):
        """The reference is the run builder this module used to carry
        (reverse, stable sort, keep first): same arrays, same file."""
        keys = rng.integers(0, 40, 300)
        vals = rng.integers(-(2**62), 2**62, 300)
        order = np.argsort(keys[::-1], kind="stable")
        ref_k, ref_v = keys[::-1][order], vals[::-1][order]
        first = np.ones(ref_k.size, dtype=bool)
        first[1:] = ref_k[1:] != ref_k[:-1]
        k, v = sorted_unique_run(keys.tolist(), vals.tolist())
        assert k.dtype == v.dtype == np.int64
        assert np.array_equal(k, ref_k[first]) and np.array_equal(v, ref_v[first])
        assert write_run_file(tmp_path, "a.npz", k, v) == write_run_file(
            tmp_path, "b.npz", ref_k[first], ref_v[first]
        )

    def test_empty_batch(self):
        k, v = sorted_unique_run(np.empty(0, np.int64), np.empty(0, np.int64))
        assert k.size == 0 and v.size == 0

    def test_mismatched_shapes_raise(self):
        with pytest.raises(IndexStateError):
            sorted_unique_run(np.arange(3), np.arange(4))


class TestRunFiles:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        keys = np.unique(rng.integers(-(2**62), 2**62, 500))
        vals = rng.integers(-(2**62), 2**62, keys.size)
        checksum, size = write_run_file(tmp_path, "r.npz", keys, vals)
        assert checksum.startswith("sha256:")
        assert size == (tmp_path / "r.npz").stat().st_size
        k, v = read_run_file(tmp_path, "r.npz", checksum)
        assert np.array_equal(k, keys) and np.array_equal(v, vals)
        assert k.dtype == np.int64 and v.dtype == np.int64

    def test_no_tmp_straggler_after_write(self, tmp_path):
        write_run_file(tmp_path, "r.npz", np.arange(5), np.arange(5))
        assert not list(tmp_path.glob("*.tmp"))

    def test_corrupted_bytes_rejected(self, tmp_path):
        checksum, _ = write_run_file(tmp_path, "r.npz", np.arange(5), np.arange(5))
        payload = bytearray((tmp_path / "r.npz").read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        (tmp_path / "r.npz").write_bytes(bytes(payload))
        with pytest.raises(StoreCorruptionError, match="checksum mismatch"):
            read_run_file(tmp_path, "r.npz", checksum)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(StoreCorruptionError, match="unreadable"):
            read_run_file(tmp_path, "absent.npz", "sha256:00")


def _meta(name="run-g00000002-s0000.npz", kind="run", shard=0, generation=2):
    return RunMeta(
        name=name,
        kind=kind,
        shard=shard,
        generation=generation,
        n_keys=10,
        min_key=1,
        max_key=99,
        checksum="sha256:deadbeef",
        size_bytes=1234,
    )


def _manifest(artefacts=(), generation=1):
    return Manifest(
        generation=generation,
        family="lipp",
        n_shards=2,
        boundaries=(500,),
        alphas=(0.1, None),
        artefacts=tuple(artefacts),
        updated_ts=1.5,
    )


class TestManifest:
    def test_json_roundtrip_lossless(self):
        manifest = _manifest([_meta(), _meta(name="b", kind="base", generation=1)])
        again = Manifest.from_json(json.loads(json.dumps(manifest.to_json())))
        assert again == manifest

    def test_foreign_format_version_rejected(self):
        obj = _manifest().to_json()
        obj["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(IndexStateError, match="format_version"):
            Manifest.from_json(obj)

    def test_views(self):
        base = _meta(name="base", kind="base", shard=1, generation=1)
        young = _meta(name="young", generation=5, shard=1)
        old = _meta(name="old", generation=3, shard=1)
        manifest = _manifest([young, base, old], generation=5)
        assert manifest.base_for(1) == base
        assert manifest.base_for(0) is None
        assert manifest.runs_for(1) == (old, young)  # replay order
        assert manifest.runs_outstanding() == 2
        assert manifest.file_names() == {"base", "young", "old"}

    def test_with_artefacts_bumps_generation(self):
        manifest = _manifest([_meta(name="a"), _meta(name="b")], generation=4)
        nxt = manifest.with_artefacts(
            add=(_meta(name="c"),), remove_names={"a"}
        )
        assert nxt.generation == 5
        assert nxt.file_names() == {"b", "c"}
        assert manifest.generation == 4  # transition is pure

    def test_commit_then_load(self, tmp_path):
        manifest = _manifest([_meta()])
        commit_manifest(tmp_path, manifest)
        loaded = load_manifest(tmp_path)
        assert loaded is not None
        assert loaded.generation == manifest.generation
        assert loaded.artefacts == manifest.artefacts
        assert not list(tmp_path.glob("*.tmp"))

    def test_load_uninitialised_dir_is_none(self, tmp_path):
        assert load_manifest(tmp_path) is None

    def test_commit_rejects_non_growing_generation(self, tmp_path):
        commit_manifest(tmp_path, _manifest(generation=3))
        with pytest.raises(IndexStateError, match="must grow"):
            commit_manifest(tmp_path, _manifest(generation=3))
        with pytest.raises(IndexStateError, match="must grow"):
            commit_manifest(tmp_path, _manifest(generation=2))
        assert load_manifest(tmp_path).generation == 3

    def test_committed_file_is_stable_json(self, tmp_path):
        commit_manifest(tmp_path, _manifest([_meta()]))
        obj = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert obj["format_version"] == FORMAT_VERSION
        assert obj["service"]["family"] == "lipp"
        assert obj["artefacts"][0]["checksum"].startswith("sha256:")


def _set(path, value):
    """An edit that sets ``obj[path[0]][path[1]]...`` to *value*."""

    def edit(text: str) -> str:
        obj = json.loads(text)
        target = obj
        for name in path[:-1]:
            target = target[name]
        target[path[-1]] = value
        return json.dumps(obj)

    return edit


#: (what happened to MANIFEST.json, what the error must name)
DAMAGE = {
    "truncated": (lambda text: text[: len(text) // 2], "not a JSON document"),
    "empty": (lambda text: "", "not a JSON document"),
    "json_list": (lambda text: "[1, 2, 3]", "JSON list"),
    "service_null": (_set(["service"], None), "'service'"),
    "unknown_family": (_set(["service", "family"], "nosuch"), "'service.family'"),
    # A read-only baseline is a family, but not a served one.
    "baseline_family": (_set(["service", "family"], "rmi"), "'service.family': index family 'rmi'"),
    "n_shards_word": (_set(["service", "n_shards"], "two"), "'service.n_shards'"),
    "boundaries_string": (_set(["service", "boundaries"], "abc"), "'service.boundaries'"),
    "alphas_word": (_set(["service", "alphas"], ["x"]), "'service.alphas'"),
    # One α per shard, one boundary between two: a short list is not
    # served unsmoothed or mis-routed, it is refused.
    "alphas_truncated": (_set(["service", "alphas"], [0.1]), "'service.alphas' has 1 entries"),
    "boundaries_truncated": (_set(["service", "boundaries"], []), "'service.boundaries' has 0"),
    "generation_word": (_set(["generation"], "x"), "'generation'"),
    "artefacts_string": (_set(["artefacts"], "abc"), "'artefacts'"),
}


class TestDamagedManifest:
    """A data directory is operator-supplied input: whatever is wrong
    with its manifest, opening it raises :class:`StoreCorruptionError`
    naming the file and the field, never a bare Python error."""

    @pytest.fixture(scope="class")
    def good_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("good")
        keys = np.arange(0, 4_000, 7, dtype=np.int64)
        service = IndexService.build(
            keys, family="lipp", n_shards=2, alpha=0.1, store=DurableStore(path)
        )
        service.snapshot()
        service.close()
        return path

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_open_snapshot_names_file_and_field(self, damage, good_dir, tmp_path):
        edit, named = DAMAGE[damage]
        bad = tmp_path / "bad"
        shutil.copytree(good_dir, bad)
        manifest = bad / MANIFEST_NAME
        manifest.write_text(edit(manifest.read_text()))
        with pytest.raises(StoreCorruptionError) as caught:
            IndexService.open_snapshot(str(bad))
        assert str(manifest) in str(caught.value)
        assert named in str(caught.value)

        # The damage is in that copy only: an undamaged one still opens.
        fine = tmp_path / "fine"
        shutil.copytree(good_dir, fine)
        service = IndexService.open_snapshot(str(fine))
        try:
            assert service.lookup(7 * 123) == 7 * 123
        finally:
            service.close()

    def test_artefact_field_is_named(self, tmp_path):
        obj = _manifest([_meta()]).to_json()
        obj["artefacts"][0]["shard"] = "zero"
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(obj))
        with pytest.raises(StoreCorruptionError, match=r"'artefacts\[\]\.shard'"):
            load_manifest(tmp_path)
