"""The ``serve`` CLI as a real process: signals, drain, restart.

These run ``python -m repro serve ...`` in a subprocess because the
contract under test is process-shaped: SIGTERM must produce an
orderly drain (exit 0), and a restart must replay what the op log
still holds.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.datasets import load
from repro.server import HttpIndexClient

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
LISTEN_RE = re.compile(r"http: listening on http://([\d.]+):(\d+)")


def spawn(*argv: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_SRC)},
    )


def wait_for_port(proc: subprocess.Popen, timeout: float = 60.0) -> tuple[str, int]:
    """Read stdout until the bound-port line appears."""
    deadline = time.monotonic() + timeout
    lines = []
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        match = LISTEN_RE.search(line)
        if match:
            return match.group(1), int(match.group(2))
    proc.kill()
    raise AssertionError(f"server never announced its port; output: {lines}")


def metric(client: HttpIndexClient, name: str) -> float:
    """An unlabelled metric's value from ``GET /metrics`` (0 when the
    process never touched it)."""
    status, __, body = client.request("GET", "/metrics")
    assert status == 200
    for line in body.decode().splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


@pytest.mark.slow
class TestHttpServeProcess:
    @pytest.mark.parametrize("http", [[], ["--http"]], ids=["plain", "inert-http-flag"])
    def test_benchmark_command_line_serves(self, tmp_path, http):
        """The command line the benchmark ladder starts, with and
        without the no-op ``--http`` it still passes."""
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        proc = spawn(
            "serve", *http, "--port", "0", "--data-dir", str(data_dir),
            "--store", str(data_dir / "runtime.db"),
        )
        try:
            host, port = wait_for_port(proc)
            with HttpIndexClient(host, port) as client:
                assert client.health()["status"] in ("ok", "warn")
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, out

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        proc = spawn(
            "serve", "--port", "0", "--n", "2000", "--shards", "2",
            "--store", str(tmp_path / "runtime.db"),
        )
        try:
            host, port = wait_for_port(proc)
            with HttpIndexClient(host, port) as client:
                health = client.health()
                assert health["admission"]["closing"] is False
                client.insert([10**15, 10**15 + 1])
                assert all(client.lookup([10**15, 10**15 + 1])["found"])
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, out
        assert "drained and stopped" in out

    def test_store_replay_across_process_restart(self, tmp_path):
        store = tmp_path / "runtime.db"
        args = (
            "serve", "--port", "0", "--n", "2000", "--shards", "2",
            "--store", str(store),
        )
        proc = spawn(*args)
        try:
            host, port = wait_for_port(proc)
            with HttpIndexClient(host, port) as client:
                client.insert([10**15 + i for i in range(5)])
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0

        proc = spawn(*args)  # same dataset, fresh process
        try:
            host, port = wait_for_port(proc)
            with HttpIndexClient(host, port) as client:
                resp = client.lookup([10**15 + i for i in range(5)])
                stats = client.stats()
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, out
        assert all(resp["found"])
        assert stats["store"]["op_log_entries"] >= 1
        # Counters are per process: the restarted one inserted exactly
        # the 5 keys it replayed, and accepted no insert request itself.
        assert stats["service"]["n_inserts"] == 5
        assert stats["http"]["http_requests_total.insert"] == 0

    @pytest.mark.parametrize("index", ["lipp", "alex"])
    def test_data_dir_replay_across_process_restart(self, tmp_path, index):
        """No op log: the writes reach the restart only as the run the
        SIGTERM close flushed into the data directory, which every
        served family (ALEX, the one without a forest, too) puts back
        into the shard's write buffer.  Each restart builds every shard
        from its base's recorded CSV rebuilds, the shard with a run on
        top included, so Algorithm 1 never runs (``smooth_runs_total``
        stays 0)."""
        args = (
            "serve", "--port", "0", "--n", "2000", "--shards", "2", "--alpha", "0.1",
            "--index", index, "--data-dir", str(tmp_path / "data"),
        )
        stored = load("facebook", 2000)
        keys = [10**15 + i for i in range(5)]
        proc = spawn(*args)  # builds, smooths and initialises the directory
        try:
            host, port = wait_for_port(proc)
            with HttpIndexClient(host, port) as client:
                assert all(client.lookup(stored.tolist())["found"])
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, out

        proc = spawn(*args)  # reopens the built snapshot: replays CSV
        try:
            host, port = wait_for_port(proc)
            with HttpIndexClient(host, port) as client:
                assert metric(client, "smooth_runs_total") == 0
                assert all(client.lookup(stored.tolist())["found"])
                client.insert(keys)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, out

        proc = spawn(*args)  # reopens with a run outstanding, into the buffer
        try:
            host, port = wait_for_port(proc)
            with HttpIndexClient(host, port) as client:
                resp = client.lookup(keys)
                assert metric(client, "smooth_runs_total") == 0
                assert all(client.lookup(stored.tolist())["found"])
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, out
        assert all(resp["found"])
