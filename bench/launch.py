"""Start, probe, measure and stop one server process.

The server runs as ``python -m lenserv.cli serve`` (or the traced
launcher) with ``PYTHONPATH=src``, on a free loopback port, with its
stdout and stderr in a log file: the CLI logs one line per request, and
a pipe nobody reads would block it once the pipe buffer filled.
"""

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from loadgen import Connection


READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
START_ATTEMPTS = 3


class ServerFailed(Exception):
    """The server did not start, or did not stop cleanly."""


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class ServerProcess:
    def __init__(self, root: Path, argv: list, log: Path):
        self.root = root
        self.argv = argv      # everything after the interpreter, without --port
        self.log = log
        self.proc = None
        self.port = None

    def start(self) -> float:
        """Spawn the server and wait for its first answered request.
        Returns seconds from spawn to that answer.  A port taken between
        choosing and binding it costs one more attempt."""
        for _ in range(START_ATTEMPTS):
            self.port = free_port()
            env = dict(os.environ, PYTHONPATH="src")
            with open(self.log, "ab") as log:
                t0 = time.perf_counter()
                self.proc = subprocess.Popen(
                    [sys.executable, *self.argv, "--port", str(self.port)],
                    cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                    stdout=log, stderr=log)
            if self._wait_ready():
                return time.perf_counter() - t0
            self.proc.wait()
        raise ServerFailed("server exited before answering:\n" + self._log_tail())

    def _log_tail(self) -> str:
        return "\n".join(self.log.read_text("utf-8", errors="replace").splitlines()[-20:])

    def _wait_ready(self) -> bool:
        """True once ``GET /`` is answered, False if the process exited
        first (say, the port was taken)."""
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                return False
            try:
                conn = Connection(self.port, timeout=5.0)
            except OSError:
                time.sleep(0.002)
                continue
            try:
                status, _ = conn.exchange("GET", "/", None)
            except OSError:
                continue
            finally:
                conn.close()
            if status == 404:
                return True
            raise ServerFailed(f"readiness probe GET / answered {status}, expected 404")
        self.kill()
        raise ServerFailed(f"no answer within {READY_TIMEOUT_S:.0f} s:\n" + self._log_tail())

    def thread_cpu_ns(self) -> dict:
        """On-CPU nanoseconds of each live thread, by thread id.  The
        scheduler's per-thread runtime is exact to the nanosecond, where
        utime + stime in /proc/<pid>/stat count 10 ms ticks, the CPU of
        about twenty requests."""
        out = {}
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            try:
                out[task.name] = int((task / "schedstat").read_text().split()[0])
            except (FileNotFoundError, ProcessLookupError):
                pass   # the thread ended while we listed it
        return out

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise ServerFailed("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM, a bounded wait, then SIGKILL.  Returns the exit code."""
        if self.proc is None or self.proc.poll() is not None:
            return self.proc.returncode if self.proc else 0
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return -signal.SIGKILL

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
