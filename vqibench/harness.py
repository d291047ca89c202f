"""Process and connection plumbing for the service benchmark.

:class:`Connection` is a persistent HTTP/1.1 client: one TCP
connection reused for every request, as an interactive front end
holds it.  (``repro.service.ServiceClient`` opens a fresh connection
per request, which hides stalls that only keep-alive clients see.)
:class:`Server` runs ``repro-vqi serve`` as a child process and times
its start-up to the first healthy ``/v1/health``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Mapping, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space for data files, stores and server logs; removed and
#: recreated by every run
WORK = os.path.join(HERE, ".work")

#: bound on one request and on a server becoming healthy
REQUEST_TIMEOUT_S = 120.0
READY_TIMEOUT_S = 150.0

Reply = Tuple[int, Dict[str, object]]


class RequestFailed(Exception):
    """A request got no HTTP answer (connection refused, reset...)."""


class Connection:
    """One keep-alive connection to a server."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)

    def request(self, method: str, path: str,
                body: Optional[Mapping[str, object]] = None) -> Reply:
        payload = None if body is None \
            else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} \
            if payload is not None else {}
        try:
            self._conn.request(method, path, body=payload,
                               headers=headers)
            reply = self._conn.getresponse()
            raw = reply.read()
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()
            raise RequestFailed(f"{method} {path}: {exc}") from exc
        try:
            parsed = json.loads(raw)
        except ValueError:
            parsed = {"raw": raw.decode("utf-8", "replace")}
        return reply.status, parsed

    def close(self) -> None:
        self._conn.close()


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_WORKERS"] = "1"
    env.pop("REPRO_TRACE", None)
    return env


class Server:
    """A ``repro-vqi serve`` child process on a fresh port."""

    def __init__(self, data: str, store: Optional[str] = None,
                 log_name: str = "server") -> None:
        self.port = free_port()
        argv = [sys.executable, "-m", "repro.cli", "serve", data,
                "--port", str(self.port)]
        if store is not None:
            argv += ["--store", store]
        self._log = open(os.path.join(WORK, f"{log_name}.log"), "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)
        self._wait_healthy()
        #: spawn -> first healthy /v1/health, seconds
        self.ready_s = time.perf_counter() - started

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                self._log.close()
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before "
                    f"it was healthy (see {self._log.name})")
            try:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=5)
                try:
                    conn.request("GET", "/v1/health")
                    if conn.getresponse().status == 200:
                        return
                finally:
                    conn.close()
            except (OSError, http.client.HTTPException):
                time.sleep(0.005)
        self.kill()
        raise RuntimeError("server never became healthy")

    def peak_rss_mb(self) -> float:
        """The child's peak resident set (VmHWM), in MB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def kill(self) -> None:
        """``kill -9`` and reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=60)
        self._log.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain), escalating to SIGKILL."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log.close()


def dir_bytes(path: str) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


#: response fields that name a request, session or snapshot, or read
#: a clock: they differ between two servers holding the same state.
#: Kept here rather than imported from repro.service.wire, so the
#: comparison does not rest on the program under test.
VOLATILE_KEYS = frozenset({
    "request_id", "snapshot", "session", "timings", "duration",
    "elapsed_s", "retry_after_s", "uptime_s", "latency_s",
})


def without_volatile(value: object) -> object:
    if isinstance(value, dict):
        return {key: without_volatile(item)
                for key, item in value.items()
                if key not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [without_volatile(item) for item in value]
    return value


def strip_volatile(body: object) -> bytes:
    """Canonical bytes of a response body without its volatile
    fields, at any depth."""
    return json.dumps(without_volatile(body), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class OpLog:
    """Attempted/failed counts and latency samples per op type."""

    def __init__(self) -> None:
        self.attempted: Dict[str, int] = {}
        self.failed: Dict[str, int] = {}
        self.samples: Dict[str, List[float]] = {}
        self.errors: List[str] = []

    def record(self, op: str, seconds: float, ok: bool,
               detail: str = "") -> None:
        self.attempted[op] = self.attempted.get(op, 0) + 1
        if ok:
            self.samples.setdefault(op, []).append(seconds)
        else:
            self.failed[op] = self.failed.get(op, 0) + 1
            if len(self.errors) < 20:
                self.errors.append(f"{op}: {detail}")

    def merge(self, other: "OpLog") -> None:
        for op, count in other.attempted.items():
            self.attempted[op] = self.attempted.get(op, 0) + count
        for op, count in other.failed.items():
            self.failed[op] = self.failed.get(op, 0) + count
        for op, values in other.samples.items():
            self.samples.setdefault(op, []).extend(values)
        self.errors.extend(other.errors[:20 - len(self.errors)])


def timed_request(conn: Connection, log: OpLog, op: str, method: str,
                  path: str, body: Optional[Mapping[str, object]] = None
                  ) -> Optional[Dict[str, object]]:
    """Send one request, record it under ``op``; the parsed body on
    a 200, else None."""
    started = time.perf_counter()
    try:
        status, reply = conn.request(method, path, body)
    except RequestFailed as exc:
        log.record(op, time.perf_counter() - started, False, str(exc))
        return None
    elapsed = time.perf_counter() - started
    if status != 200:
        log.record(op, elapsed, False, f"HTTP {status}: "
                   f"{json.dumps(reply)[:200]}")
        return None
    log.record(op, elapsed, True)
    return reply
