"""Child processes: nothing the runner starts may outlive the run.

The previous benchmark attempt was thrown away because a server
survived it, so every child is started here and nowhere else:

* from the main thread (``PR_SET_PDEATHSIG`` is tied to the *thread*
  that forked), in its own session, with ``PR_SET_PDEATHSIG=SIGKILL``
  so the kernel kills it even when the runner itself is ``SIGKILL``ed;
* with stdout/stderr on a log file — a pipe nobody drains would block
  the server once it fills;
* stopped by SIGTERM -> 10 s -> ``killpg`` SIGKILL -> ``wait``, from a
  ``finally``, from ``atexit`` and from the SIGINT/SIGTERM handlers.

Before results are printed, :meth:`Children.survivors` scans ``/proc``
for anything whose parent is the runner or whose session is one the
runner created.
"""

from __future__ import annotations

import atexit
import ctypes
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

PR_SET_PDEATHSIG = 1
TERM_GRACE_S = 10.0
LISTEN_DEADLINE_S = 120.0
_LISTENING = re.compile(rb"listening on http://([^:\s]+):(\d+)")


def _die_with_parent(parent_pid: int):
    libc = ctypes.CDLL(None, use_errno=True)  # resolved before fork

    def preexec() -> None:
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent_pid:  # parent died before prctl landed
            os._exit(1)

    return preexec


class Children:
    """Every process the runner starts, and how each one ends."""

    def __init__(self) -> None:
        self._live: list[subprocess.Popen] = []
        self._sessions: set[int] = set()
        self._janitor: subprocess.Popen | None = None

    def install_handlers(self) -> None:
        """Mirror the ``finally`` clean-up on interpreter exit and on
        SIGINT/SIGTERM (call from the main thread)."""
        atexit.register(self.stop_all)

        def on_signal(signum, _frame) -> None:
            self.stop_all()
            raise SystemExit(128 + signum)

        signal.signal(signal.SIGINT, on_signal)
        signal.signal(signal.SIGTERM, on_signal)

    def spawn(self, argv: list[str], log_path: Path, env: dict[str, str]) -> subprocess.Popen:
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                argv,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                start_new_session=True,
                preexec_fn=_die_with_parent(os.getpid()),
            )
        self._live.append(proc)
        self._sessions.add(proc.pid)
        return proc

    def stop(self, proc: subprocess.Popen) -> int:
        """Graceful stop; returns the exit code."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(TERM_GRACE_S)
            except subprocess.TimeoutExpired:
                pass
        return self.kill(proc)

    def kill(self, proc: subprocess.Popen) -> int:
        """SIGKILL the child's whole session and reap it."""
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        code = proc.wait()
        if proc in self._live:
            self._live.remove(proc)
        return code

    def stop_all(self) -> None:
        for proc in list(self._live):
            self.kill(proc)
        self.close_scratch()

    # -- scratch directory ------------------------------------------------
    def open_scratch(self, path: Path) -> Path:
        """Create *path* and arrange for it to vanish with the runner.

        A shell blocked on a pipe only the runner holds removes the
        directory the moment the pipe closes — on :meth:`close_scratch`
        or when the kernel closes it because the runner was killed.
        """
        for stale in path.parent.glob("run-*"):  # left by a run killed with its janitor
            if not Path("/proc", stale.name.split("-")[1]).exists():
                shutil.rmtree(stale, ignore_errors=True)
        path.mkdir(parents=True)
        # "$0" is the run's directory; its then-empty parent goes too.
        script = (
            'read _; for i in 1 2 3 4 5 6 7 8 9 10; do rm -rf -- "$0"; '
            '[ -e "$0" ] || { rmdir -- "${0%/*}" 2>/dev/null; exit 0; }; '
            'sleep 0.2; done; exit 1'
        )
        self._janitor = subprocess.Popen(
            ["/bin/sh", "-c", script, str(path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        self._sessions.add(self._janitor.pid)
        return path

    def close_scratch(self) -> None:
        janitor, self._janitor = self._janitor, None
        if janitor is None:
            return
        janitor.stdin.close()
        try:
            janitor.wait(30.0)
        except subprocess.TimeoutExpired:
            os.killpg(janitor.pid, signal.SIGKILL)
            janitor.wait()

    # -- the final check --------------------------------------------------
    def survivors(self) -> list[str]:
        """``pid comm`` of every process whose parent is the runner or
        whose session the runner created."""
        me = os.getpid()
        found = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit() or int(entry) == me:
                continue
            try:
                comm, fields = proc_stat(entry)
            except OSError:
                continue  # exited while we were looking
            ppid, session = int(fields[1]), int(fields[3])
            if ppid == me or session in self._sessions:
                found.append(f"{entry} {comm}")
        return found


def proc_stat(pid: int | str) -> tuple[str, list[str]]:
    """``/proc/<pid>/stat`` as (comm, the fields after it); fields[0]
    is the state, i.e. field 3 of proc(5)."""
    stat = Path("/proc", str(pid), "stat").read_text()
    return stat[stat.index("(") + 1 : stat.rindex(")")], stat[stat.rindex(")") + 2 :].split()


def proc_status_kb(pid: int | str, field: str) -> int:
    for line in Path("/proc", str(pid), "status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise KeyError(field)


def peak_rss_mb(pid: int | str = "self") -> float:
    return proc_status_kb(pid, "VmHWM") / 1024.0


class Server:
    """One ``python -m repro serve --http`` subprocess on a data dir.

    The operator entry point with every flag at its default except
    the three the issue names: ``--port 0``, ``--data-dir`` and
    ``--store``.
    """

    def __init__(self, children: Children, src: Path, data_dir: Path, log_path: Path):
        self.children = children
        self.data_dir = data_dir
        self.log_path = log_path
        argv = [
            sys.executable, "-m", "repro", "serve", "--http", "--port", "0",
            "--data-dir", str(data_dir), "--store", str(data_dir / "runtime.db"),
        ]
        env = {**os.environ, "PYTHONPATH": str(src)}
        self.proc = children.spawn(argv, log_path, env)
        self.pid = self.proc.pid
        self.host, self.port = self._await_listening()

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + LISTEN_DEADLINE_S
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_bytes())
            if match:
                return match.group(1).decode(), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.children.kill(self.proc)
        raise RuntimeError(
            "server never reported listening; log:\n"
            + self.log_path.read_text(errors="replace")[-2000:]
        )

    def get_json(self, path: str) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60.0)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def cpu_seconds(self) -> float:
        _comm, fields = proc_stat(self.pid)
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def stop(self) -> int:
        return self.children.stop(self.proc)

    def crash(self) -> None:
        """``SIGKILL``, no drain: the durability test's power cut."""
        self.children.kill(self.proc)
