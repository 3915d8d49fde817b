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
            ["--metrics-every", "5"],
            ["--ops", "10"],
            ["--read-frac", "0.5"],
            ["--batch", "512"],
            ["--seed", "1"],
            ["--metrics-out", "x"],
            ["--metrics-every-s", "5"],
            ["--compaction", "tiered"],
        ],
        ids=[
            "cache-blocks", "threads", "executor-thread",
            "executor-process", "workers", "replicas", "timeout-s",
            "compare", "zipf", "metrics-every", "ops", "read-frac", "batch",
            "seed", "metrics-out", "metrics-every-s", "compaction",
        ],
    )
    def test_serve_rejects_removed_flags(self, removed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", *removed])
        assert exc.value.code == 2
        assert removed[0] in capsys.readouterr().err

    def test_metrics_command_is_gone(self, capsys):
        """``repro metrics`` read the deleted JSON-lines stream; ``GET
        /metrics`` on a live server is the one way out."""
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--in", "x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "'metrics'" in err

    @pytest.mark.parametrize(
        "bad",
        [
            ["--max-inflight", "0"],
            ["--max-pending", "-1"],
            ["--port", "70000"],
        ],
        ids=["max-inflight", "max-pending", "port"],
    )
    def test_serve_rejects_out_of_range_values_before_building(
        self, bad, tmp_path, monkeypatch, capsys
    ):
        from repro.serving import IndexService

        builds = []
        monkeypatch.setattr(
            IndexService, "build", classmethod(lambda cls, *a, **k: builds.append(a))
        )
        argv = ["serve", "--n", "2000", "--shards", "2",
                "--data-dir", str(tmp_path / "data"), *bad]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and bad[0] in err
        assert "Traceback" not in err
        assert builds == []

    @pytest.mark.parametrize("family", ["btree", "pgm", "rmi", "sorted_array"])
    def test_serve_refuses_a_read_only_baseline(self, family, monkeypatch, capsys):
        """Only the CSV families are served: a baseline is argparse's
        one-line usage error, exit 2, before anything is built."""
        from repro.serving import IndexService

        builds = []
        monkeypatch.setattr(
            IndexService, "build", classmethod(lambda cls, *a, **k: builds.append(a))
        )
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--index", family, "--port", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "--index" in err and repr(family) in err
        assert builds == []

    def test_serve_http_flag_changes_nothing_else(self):
        rest = ["--index", "alex", "--shards", "3", "--port", "0", "--store", "r.db"]
        with_http = vars(build_parser().parse_args(["serve", "--http", *rest]))
        without = vars(build_parser().parse_args(["serve", *rest]))
        assert with_http.pop("http") is True and without.pop("http") is False
        assert with_http == without

    def test_reopened_data_dir_names_every_ignored_flag(self, tmp_path, capsys):
        """The manifest supplies the family, the key set, the shard count
        and each shard's α: a reopen ignores all five flags that would
        describe them, and says so."""
        from repro.cli import _make_service
        from repro.obs.log import configure_logging

        data_dir = str(tmp_path / "data")
        parse = build_parser().parse_args
        _make_service(parse(["serve", "--n", "3000", "--shards", "2",
                             "--data-dir", data_dir])).close()
        configure_logging("plain")
        capsys.readouterr()
        service = _make_service(parse([
            "serve", "--data-dir", data_dir, "--index", "alex", "--dataset", "osm",
            "--n", "500", "--shards", "8", "--alpha", "0.2",
        ]))
        try:
            assert service.family == "lipp" and service.n_keys == 3000
            assert service.n_shards == 2
            assert service.alphas == (None, None)
        finally:
            service.close()
        assert "--dataset/--n/--index/--shards/--alpha ignored" in capsys.readouterr().out

    def test_value_the_library_rejects_is_one_line_and_exit_2(self, capsys):
        argv = ["csv", "--index", "lipp", "--dataset", "osm", "--n", "2000", "--alpha", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: alpha must be in (0, 1)")
        assert "Traceback" not in err
