"""Driving the system from outside: ``python -m repro`` processes and HTTP.

Every process started here is waited for before the function that
started it returns, or — for the long-lived ``repro serve`` — by
:meth:`Server.stop`, which callers run in a ``finally`` block.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from bench_inputs import DATA, ROOT
from bench_gauge import gauge_task
from bench_stats import GAUGE_INLINE_LINES

HOST = "127.0.0.1"

#: Child that reports when ``repro.cli`` is imported and ready to work.
_READY = "import repro.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


#: The CPUs the runner may use, as it found them at start.
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def placements() -> List[Optional[int]]:
    """The CPUs operations take turns on; ``[None]`` (no pinning) with one CPU."""
    return sorted(ALL_CPUS) if len(ALL_CPUS) > 1 else [None]


def pin(pid: int, cpus: Iterable[int]) -> None:
    """Restrict every thread of process *pid* to *cpus*; threads and
    processes it starts later inherit the restriction."""
    cpus = set(cpus)
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:  # the process has ended; its failure shows elsewhere
        return
    for tid in tids:
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:  # the thread ended meanwhile
            pass


@contextmanager
def on_cpu(cpu: Optional[int]) -> Iterator[None]:
    """Run the block, and every process it starts, on *cpu* alone
    (anywhere when *cpu* is ``None``); afterwards the runner may use
    every CPU again."""
    if cpu is not None:
        pin(os.getpid(), {cpu})
    try:
        yield
    finally:
        if cpu is not None:
            pin(os.getpid(), ALL_CPUS)


def repro_env() -> dict:
    """The environment for ``python -m repro`` run from the checkout's sources."""
    env = dict(os.environ)
    parts = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


@dataclass
class ProcessRun:
    """One finished child process."""

    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def run_repro(args: Sequence[str], stderr_path: Path) -> ProcessRun:
    """Run ``python -m repro ARGS`` to exit; time it from spawn to reap.

    Peak memory is the child's ``ru_maxrss`` (it covers the child and
    the worker processes it waited for)."""
    stderr_path.parent.mkdir(parents=True, exist_ok=True)
    with stderr_path.open("w+b") as errors:
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE, stderr=errors, env=repro_env(), cwd=ROOT,
        )
        with process.stdout:
            out = process.stdout.read()
        _, status, usage = os.wait4(process.pid, 0)
        wall = time.perf_counter() - start
        process.returncode = os.waitstatus_to_exitcode(status)
        errors.seek(0)
        err = errors.read().decode("utf-8", "replace")
    return ProcessRun(
        wall, process.returncode, out.decode("utf-8", "replace"), err, usage.ru_maxrss / 1024
    )


GAUGE_SCRIPT = Path(__file__).resolve().parent / "bench_gauge.py"


def gauge_seconds(cpus: Sequence[Optional[int]] = (None,)) -> float:
    """CPU seconds of the gauge task's process form: one process per
    entry of *cpus*, started together, each pinned to its CPU (``None``:
    wherever the runner may run right now); the mean over the processes.

    CPU time, not wall time, so that the processes' order of ending
    does not matter; on this kind of host a CPU-bound process's CPU time
    follows the CPU's speed."""
    children = []
    for cpu in cpus:
        child = subprocess.Popen([sys.executable, str(GAUGE_SCRIPT)], cwd=ROOT)
        children.append(child)
        if cpu is not None:
            pin(child.pid, {cpu})
    seconds, codes = [], []
    for child in children:
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        codes.append(child.returncode)
        seconds.append(usage.ru_utime + usage.ru_stime)
    if any(codes):
        raise RuntimeError(f"gauge task failed: exit codes {codes}")
    return sum(seconds) / len(seconds)


def inline_gauge_seconds() -> float:
    """Seconds of the gauge task run in this thread over
    ``GAUGE_INLINE_LINES`` lines (for operations too short to pair
    with a process)."""
    start = time.perf_counter()
    gauge_task(GAUGE_INLINE_LINES)
    return time.perf_counter() - start


def time_cli_ready() -> Tuple[float, bool]:
    """Seconds from spawning ``python`` until ``repro.cli`` is imported."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-c", _READY], stdout=subprocess.PIPE, env=repro_env(), cwd=ROOT
    )
    with process.stdout:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - start
    process.wait()
    return elapsed, line == b"ready\n" and process.returncode == 0


def import_times() -> Tuple[float, dict]:
    """``python -X importtime -c 'import repro.cli'``: the cumulative
    import time of ``repro.cli`` and its split over ``repro`` subpackages.

    Each module's self time goes to the subpackage of the closest
    ``repro`` module it was imported under (stdlib modules included), so
    the groups add up to the total."""
    process = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=repro_env(), cwd=ROOT,
        check=True,
    )
    rows = []
    for line in process.stderr.decode().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        if not own.strip().isdigit():
            continue  # the header row
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((int(own), int(cumulative), depth, name.strip()))
    return _attribute(rows)


def _group(module: str) -> Optional[str]:
    """The import group of a ``repro`` module (``None`` for other modules)."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) > 1 and (ROOT / "src" / "repro" / parts[1]).is_dir():
        return parts[1]
    return "core"


def _attribute(rows: List[Tuple[int, int, int, str]]) -> Tuple[float, dict]:
    """Fold ``-X importtime`` rows (post-order, indented by depth) into
    per-group self times under the ``repro.cli`` tree."""
    groups: dict = {}
    total = 0.0
    owners: List[Optional[str]] = []  # owning group per depth; None = outside the tree
    for own, cumulative, depth, name in reversed(rows):  # every parent before its children
        del owners[depth:]
        if depth == 0:
            owner = "core" if name == "repro.cli" else None
            total = cumulative / 1e6 if owner else total
        else:
            owner = owners[depth - 1] and (_group(name) or owners[depth - 1])
        owners.append(owner)
        if owner is not None:
            groups[owner] = groups.get(owner, 0.0) + own / 1e6
    return total, groups


def free_port() -> int:
    """A TCP port on :data:`HOST` that is free right now."""
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


class Server:
    """A ``repro serve`` child process over one warehouse file."""

    def __init__(self, warehouse: Path, stderr_path: Path) -> None:
        self.port = free_port()
        self._errors = stderr_path.open("wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(warehouse), "--port", str(self.port)],
            stdout=subprocess.DEVNULL, stderr=self._errors, env=repro_env(), cwd=ROOT,
        )

    @classmethod
    def start(cls, warehouse: Path, stderr_path: Path) -> "Server":
        """Spawn a server and wait until it answers; stop it if it never does."""
        server = cls(warehouse, stderr_path)
        try:
            server.wait_ready()
        except BaseException:
            server.stop()
            raise
        return server

    def connect(self) -> http.client.HTTPConnection:
        """A new keep-alive connection to the service."""
        return http.client.HTTPConnection(HOST, self.port, timeout=60)

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until ``GET /`` answers 200."""
        deadline = time.perf_counter() + timeout
        while True:
            connection = self.connect()
            try:
                status, _ = get(connection, "/")
                if status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            if self.process.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"repro serve did not come up (exit {self.process.poll()})")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server so far (Linux ``VmHWM``)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Terminate the server and wait for it."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._errors.close()


def get(connection: http.client.HTTPConnection, path: str) -> Tuple[int, bytes]:
    """One GET on *connection*; returns status and body."""
    connection.request("GET", path)
    response = connection.getresponse()
    return response.status, response.read()


def body_ok(path: str, body: bytes) -> bool:
    """Whether a 200 body has the shape its endpoint promises."""
    if path.startswith("/report"):
        return body.startswith(b"Table 1:")
    try:
        page = json.loads(body)
    except ValueError:
        return False
    return isinstance(page, dict) and isinstance(page.get("items"), list)


class Reader(threading.Thread):
    """One client on one keep-alive connection, in a closed loop over *mix*."""

    def __init__(self, server: Server, mix: Sequence[str]) -> None:
        super().__init__(daemon=True)
        self.server = server
        self.mix = mix
        self.latencies: List[float] = []
        self.failures = 0
        self.error: Optional[str] = None
        self._halt = threading.Event()

    def halt(self) -> None:
        """Ask the loop to stop after the request in flight."""
        self._halt.set()

    def run(self) -> None:
        """The closed loop: send the next request when the last one is done."""
        connection = self.server.connect()
        try:
            turn = 0
            while not self._halt.is_set():
                path = self.mix[turn % len(self.mix)]
                turn += 1
                start = time.perf_counter()
                try:
                    status, body = get(connection, path)
                    ok = status == 200 and body_ok(path, body)
                except (OSError, http.client.HTTPException):
                    ok = False
                    connection.close()
                    connection = self.server.connect()
                self.latencies.append(time.perf_counter() - start)
                self.failures += not ok
        except Exception as error:  # a reader bug must fail the run, not hang it
            self.error = repr(error)
            self.failures += 1
        finally:
            connection.close()


def work_dir(run_id: str) -> Path:
    """A fresh scratch directory for one run, inside the checkout."""
    path = DATA / "work" / run_id
    path.mkdir(parents=True, exist_ok=True)
    return path
