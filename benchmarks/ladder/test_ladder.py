"""Tests of the ladder itself; ``python -m pytest benchmarks/ladder -q``.

Outside tier-1's ``testpaths`` on purpose: they spawn real servers.
Everything runs tiny sizes through the same functions the published
sizes go through.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import paths  # noqa: F401  (src/ on sys.path)
import compare
import procs
import run as ladder
from inputs import Config
from workloads import WORKLOADS

TINY = Config(
    n_keys=3_000, warmup_requests=10, lookup_requests=40, mixed_requests=60,
    bulk_batch_keys=2_000, bulk_batches=3, range_calls=12, range_keys=100,
    traced_requests=20, traced_batches=3,
)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
CATALOG = json.loads(paths.BENCHMARK_JSON.read_text())


def _serve_processes(marker: str) -> list[str]:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                cmdline = Path("/proc", entry, "cmdline").read_bytes().decode(errors="replace")
            except OSError:
                continue
            if "serve" in cmdline and marker in cmdline:
                found.append(cmdline.replace("\0", " "))
    return found


def test_catalog_matches_the_code():
    assert [w["name"] for w in CATALOG["workloads"]] == list(WORKLOADS)
    assert CATALOG["paths"] == ["benchmarks/ladder"]
    names = [m["name"] for m in CATALOG["end_to_end"] + CATALOG["per_layer"]]
    names += list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert {m["name"] for m in CATALOG["end_to_end"]} >= {"setup_s"}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_emitted(name, traced, capsys):
    children = procs.Children()
    row = ladder.execute([name], [traced], TINY, seed=7, children=children)
    printed = capsys.readouterr().out
    declared = CATALOG["per_layer" if traced else "end_to_end"]
    assert set(row["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert row["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f" {metric['name']} = " in printed
    assert row["correct"], printed
    assert row["failed"] == 0 and row["attempted"] >= 1
    if not traced:
        assert all(entry["value"] > 0 for entry in row["metrics"].values()), row
    assert children.survivors() == []
    assert not any(paths.SCRATCH_ROOT.glob(f"run-{os.getpid()}-*"))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_injected_wrong_answer_is_counted_and_fails(name, capsys):
    row = ladder.execute([name], [False], TINY, seed=7, children=procs.Children(),
                         inject="wrong_answer")
    assert row["failed"] >= 1 and not row["correct"], capsys.readouterr().out


def test_injected_lost_write_is_counted_and_fails(capsys):
    row = ladder.execute(["http_mixed_durable"], [False], TINY, seed=7,
                         children=procs.Children(), inject="lost_write")
    printed = capsys.readouterr().out
    assert row["failed"] >= 1 and not row["correct"], printed
    assert "acknowledged keys lost" in printed


def test_exit_code_follows_correctness(monkeypatch, capsys):
    monkeypatch.setattr(ladder.Config, "for_seconds", classmethod(lambda cls, s: TINY))
    monkeypatch.setattr(procs.Children, "install_handlers", lambda self: None)
    argv = ["--workload", "bulk_scan", "--seed", "7", "--seconds", "1", "--trace", "0"]
    assert ladder.main(argv) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert ladder.main(argv + ["--inject", "wrong_answer"]) != 0


def test_sigkilled_runner_leaves_nothing_behind():
    runner = subprocess.Popen(
        [sys.executable, str(paths.HERE / "run.py"), "--workload", "http_lookup",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    marker = f"run-{runner.pid}-"
    try:
        deadline = time.monotonic() + 120
        while not _serve_processes(marker):
            assert runner.poll() is None, "runner ended before its server came up"
            assert time.monotonic() < deadline, "server never came up"
            time.sleep(0.05)
    finally:
        runner.send_signal(signal.SIGKILL)
        runner.wait()
    time.sleep(2.0)
    assert _serve_processes(marker) == []
    assert not any(paths.SCRATCH_ROOT.glob(marker + "*"))


def test_compare_verdicts(tmp_path):
    def records(seed_values):
        return [{"workload": "bulk_scan", "trace": 0, "seed": 1,
                 "metrics": {"keys_per_s": {"value": v, "unit": "1/s"},
                             "read_p50_ms": {"value": 1000.0 / v, "unit": "ms"}}}
                for v in seed_values]

    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    slow = [60.0, 61.0, 59.0, 60.5, 59.5]  # beyond the 0.25 bound either way
    rows = {(r["metric"], tag): r["verdict"]
            for tag, b in (("same", steady), ("slow", slow),
                           ("noisy", [60.0, 140.0, 100.0, 75.0, 130.0]))
            for r in compare.compare(records(steady), records(b), CATALOG)}
    assert rows["keys_per_s", "same"] == "ok" and rows["read_p50_ms", "same"] == "ok"
    assert rows["keys_per_s", "slow"] == "worse" and rows["read_p50_ms", "slow"] == "worse"
    assert rows["keys_per_s", "noisy"] == "unresolved"

    for tag, values in (("a", steady), ("b", slow)):
        (tmp_path / f"{tag}.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records(values)))
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "a.jsonl")]) == 0
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 1
