"""Tests for the CLI front-end and persistence helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.exceptions import InvalidKeysError
from repro.core.smoothing import smooth_keys
from repro.evaluation.runner import run_csv_experiment
from repro.io import (
    export_rows_csv,
    load_keys,
    load_smoothing_result,
    save_keys,
    save_smoothing_result,
)


class TestIo:
    def test_keys_roundtrip(self, tmp_path, small_keys):
        path = save_keys(tmp_path / "keys.npz", small_keys)
        keys, values = load_keys(path)
        assert np.array_equal(keys, small_keys)
        assert values is None

    def test_keys_with_values_roundtrip(self, tmp_path, small_keys):
        vals = small_keys * 2
        path = save_keys(tmp_path / "kv.npz", small_keys, vals)
        keys, values = load_keys(path)
        assert np.array_equal(values, vals)

    def test_save_keys_rejects_mismatch(self, tmp_path, small_keys):
        with pytest.raises(InvalidKeysError):
            save_keys(tmp_path / "bad.npz", small_keys, small_keys[:-1])

    def test_smoothing_result_roundtrip(self, tmp_path, toy_keys):
        result = smooth_keys(toy_keys, alpha=0.5)
        path = save_smoothing_result(tmp_path / "smooth.npz", result)
        loaded = load_smoothing_result(path)
        assert np.array_equal(loaded.points, result.points)
        assert loaded.virtual_points == result.virtual_points
        assert loaded.final_loss == pytest.approx(result.final_loss)
        assert loaded.model.slope == pytest.approx(result.model.slope)
        assert loaded.model.pivot == result.model.pivot
        assert loaded.budget == result.budget

    def test_export_rows_csv(self, tmp_path):
        row = run_csv_experiment("lipp", "covid", n=1500, alpha=0.1)
        path = export_rows_csv(tmp_path / "rows.csv", [row])
        content = path.read_text().splitlines()
        assert content[0].startswith("index_family,dataset")
        assert "lipp,covid" in content[1]

    def test_export_rejects_empty(self, tmp_path):
        with pytest.raises(InvalidKeysError):
            export_rows_csv(tmp_path / "rows.csv", [])


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_command(self, capsys):
        assert main(["datasets", "--n", "1500"]) == 0
        out = capsys.readouterr().out
        for name in ("covid", "facebook", "genome", "osm"):
            assert name in out

    def test_smooth_command(self, capsys):
        assert main(["smooth", "--dataset", "covid", "--n", "1200", "--alpha", "0.1"]) == 0
        assert "virtual points inserted" in capsys.readouterr().out

    def test_smooth_from_file(self, tmp_path, small_keys, capsys):
        path = save_keys(tmp_path / "keys.npz", small_keys)
        assert main(["smooth", "--keys-file", str(path), "--alpha", "0.2"]) == 0
        assert str(path) in capsys.readouterr().out

    def test_smooth_save(self, tmp_path, capsys):
        target = tmp_path / "result.npz"
        assert (
            main(
                [
                    "smooth",
                    "--dataset",
                    "covid",
                    "--n",
                    "1200",
                    "--alpha",
                    "0.1",
                    "--save",
                    str(target),
                ]
            )
            == 0
        )
        assert target.exists()
        loaded = load_smoothing_result(target)
        assert loaded.original_keys.size == 1200

    def test_build_command(self, capsys):
        assert main(["build", "--index", "lipp", "--dataset", "covid", "--n", "1500"]) == 0
        out = capsys.readouterr().out
        assert "height" in out and "nodes" in out

    def test_csv_command(self, capsys):
        assert main(["csv", "--index", "lipp", "--dataset", "covid", "--n", "1500"]) == 0
        assert "promoted keys" in capsys.readouterr().out

    def test_csv_export(self, tmp_path, capsys):
        target = tmp_path / "row.csv"
        assert (
            main(
                [
                    "csv",
                    "--index",
                    "lipp",
                    "--dataset",
                    "covid",
                    "--n",
                    "1500",
                    "--export",
                    str(target),
                ]
            )
            == 0
        )
        assert target.exists()

    def test_levels_command(self, capsys):
        assert main(["levels", "--index", "lipp", "--dataset", "genome", "--n", "1500"]) == 0
        assert "avg query" in capsys.readouterr().out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["build", "--dataset", "nope"])

    @pytest.mark.parametrize(
        "removed",
        [
            ["--cache-blocks", "1"],
            ["--threads", "2"],
            ["--executor", "thread"],
            ["--executor", "process"],
            ["--workers", "2"],
            ["--replicas", "2"],
            ["--timeout-s", "5"],
            ["--compare"],
            ["--zipf"],
            ["--metrics-every", "5"],  # not an abbreviation of --metrics-every-s
        ],
        ids=[
            "cache-blocks", "threads", "executor-thread",
            "executor-process", "workers", "replicas", "timeout-s",
            "compare", "zipf", "metrics-every",
        ],
    )
    def test_serve_rejects_removed_flags(self, removed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", *removed])
        assert exc.value.code == 2
        assert removed[0] in capsys.readouterr().err

    def test_reopened_serve_reads_the_stored_keys(self, tmp_path, capsys):
        """A reopened ``--data-dir`` ignores ``--dataset`` / ``--n``: the
        simulation must sample its reads from the keys the directory
        holds, not from the default dataset it never loaded (read hit
        rate 0.000 before the fix)."""
        data_dir = str(tmp_path / "data")
        build = ["serve", "--index", "lipp", "--shards", "2", "--n", "3000",
                 "--dataset", "osm", "--ops", "500", "--data-dir", data_dir]
        assert main(build) == 0
        capsys.readouterr()
        assert main(["serve", "--data-dir", data_dir, "--ops", "500",
                     "--read-frac", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "data dir: opened generation" in out
        assert "read hit rate 1.000" in out

    def test_value_the_library_rejects_is_one_line_and_exit_2(self, capsys):
        argv = ["csv", "--index", "lipp", "--dataset", "osm", "--n", "2000", "--alpha", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: alpha must be in (0, 1)")
        assert "Traceback" not in err
