"""The load generator and the child-process controller.

Load is closed-loop: each simulated browser owns one keep-alive
connection and one thread, and sends its next request only after the
previous response arrived and was checked against its verdict.

With a single browser, each request is also charged the server's CPU
time between sending it and reading its response (:class:`ServerCpu`).
CPU time leaves out the time the hypervisor gives other guests, which on
a shared host moves wall-clock figures by a third from one minute to the
next.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from . import calibrate, oracle, wire

_clock = time.perf_counter

#: Longest wait for a serving child's reply to a command.
CALL_TIMEOUT_S = 120.0
#: Longest wait for a child to exit before it is killed.
EXIT_TIMEOUT_S = 30.0
#: Seconds between two reference samples of a single browser.
CALIBRATE_EVERY_S = 0.05


class ChildError(Exception):
    """A child process died, timed out or reported an error."""


class Child:
    """A child process speaking the ``@@ <json>`` line protocol on stdout
    and taking JSON commands on stdin."""

    def __init__(self, argv: List[str], env: dict, cwd: str):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=cwd
        )
        self._buf = b""

    def reply(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" in self._buf:
                line, self._buf = self._buf.split(b"\n", 1)
                if line.startswith(b"@@ "):
                    payload = json.loads(line[3:])
                    if "error" in payload:
                        raise ChildError(payload["error"])
                    return payload
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildError(f"no reply within {timeout:.0f}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                data = os.read(fd, 65536)
                if not data:
                    code = self.proc.wait()
                    raise ChildError(f"child exited with code {code}")
                self._buf += data

    def call(self, cmd: str, **fields) -> dict:
        self.proc.stdin.write((json.dumps({"cmd": cmd, **fields}) + "\n").encode())
        self.proc.stdin.flush()
        return self.reply(CALL_TIMEOUT_S)

    def close(self) -> None:
        """Wait for the child to end, killing it if it does not."""
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.close()


class ServerCpu:
    """CPU time of every thread of a running process, in seconds, read from
    ``/proc/<pid>/task/*/schedstat`` (nanoseconds on the CPU, steal left
    out).  Threads must outlive the readings: a thread that ends takes its
    time out of the sum, so the server's thread set must be settled
    (warmed up) before the first reading."""

    def __init__(self, pid: int):
        self._tasks = f"/proc/{pid}/task"
        self._fds: dict = {}

    def read(self) -> float:
        total = 0
        for tid in os.listdir(self._tasks):
            fd = self._fds.get(tid)
            if fd is None:
                try:
                    fd = os.open(f"{self._tasks}/{tid}/schedstat", os.O_RDONLY)
                except FileNotFoundError:
                    continue
                self._fds[tid] = fd
            try:
                total += int(os.pread(fd, 128, 0).split()[0])
            except (OSError, IndexError, ValueError):
                pass
        return total / 1e9

    def close(self) -> None:
        for fd in self._fds.values():
            os.close(fd)
        self._fds.clear()


@dataclass
class Sample:
    kind: str
    seconds: float
    error: Optional[str]
    denial: bool
    #: Completion time (``time.perf_counter``).
    done: float
    #: Server CPU seconds spent while the request was in flight (single
    #: browser only).
    cpu: Optional[float] = None


@dataclass
class Phase:
    """The outcome of one load phase."""

    samples: List[Sample] = field(default_factory=list)
    start: float = 0.0
    elapsed: float = 0.0
    #: Server CPU seconds over the whole phase (when a clock was given).
    cpu_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def errors(self) -> List[str]:
        return [s.error for s in self.samples if s.error is not None]

    @property
    def correct(self) -> int:
        return sum(1 for s in self.samples if s.error is None)

    def latencies(self, kind: str) -> List[float]:
        """Latencies of correct responses of ``kind``, in completion order."""
        return [s.seconds for s in self.samples if s.kind == kind and s.error is None]

    def cpu_times(self, kind: str) -> List[float]:
        """Server CPU seconds of correct responses of ``kind``."""
        return [s.cpu for s in self.samples if s.kind == kind and s.error is None]

    @property
    def correct_per_s(self) -> float:
        """Correct responses per second over the whole phase."""
        return self.correct / self.elapsed if self.elapsed > 0 else 0.0

    def windows(self, kind: str = "") -> List[List[float]]:
        """Latencies of correct responses (of ``kind``, or all) by the
        one-second window they completed in, to show drift within a run;
        a last partial window is dropped."""
        out: List[List[float]] = [[] for _ in range(int(self.elapsed))]
        for s in self.samples:
            slot = int(s.done - self.start)
            if s.error is None and slot < len(out) and kind in ("", s.kind):
                out[slot].append(s.seconds)
        return out


def exchange(sock, reader, request) -> Tuple[int, bytes, bool]:
    """Send one request and read its response; returns ``(status, body,
    closing)``."""
    data = wire.encode_request(request.method, request.path, request.user, request.form)
    sock.sendall(data)
    status, headers, body = reader.read()
    return status, body, headers.get("connection", "").lower() == "close"


def _browser(port: int, stream, seconds: float, barrier, out: list, cpu, cal) -> None:
    samples: List[Sample] = []
    sock = wire.connect(port)
    reader = wire.ResponseReader(sock)
    try:
        barrier.wait()
        start = _clock()
        deadline = start + seconds
        due = start
        while _clock() < deadline:
            if cal is not None and _clock() >= due:
                # Between requests, while the server is idle.
                cal.take()
                due += CALIBRATE_EVERY_S
            request = stream.next()
            cpu_sent = cpu.read() if cpu else None
            sent = _clock()
            try:
                status, body, closing = exchange(sock, reader, request)
            except (OSError, wire.WireError) as exc:
                status, error, closing = None, f"transport: {exc}", True
            done = _clock()
            used = cpu.read() - cpu_sent if cpu else None
            if status is not None:
                error = oracle.check(request.verdict, status, body)
            samples.append(
                Sample(
                    request.kind,
                    done - sent,
                    error,
                    request.verdict.denial,
                    done,
                    used,
                )
            )
            stream.acknowledge(request, error is None)
            if closing:
                sock.close()
                sock = wire.connect(port)
                reader = wire.ResponseReader(sock)
        out.append((start, _clock(), samples))
    finally:
        sock.close()


def run_phase(
    port: int,
    streams: list,
    seconds: float,
    cpu: Optional[ServerCpu] = None,
    cal: Optional[calibrate.Calibration] = None,
) -> Phase:
    """Drive one browser per stream for ``seconds``; with a ``cpu`` clock
    (one stream only) each request is charged the server's CPU time, and
    with ``cal`` the reference is sampled between requests."""
    if (cpu is not None or cal is not None) and len(streams) != 1:
        raise ValueError("per-request CPU time needs a single browser")
    barrier = threading.Barrier(len(streams))
    out: list = []
    args = (seconds, barrier, out, cpu, cal)
    threads = [
        threading.Thread(target=_browser, args=(port, s, *args)) for s in streams
    ]
    cpu_start = cpu.read() if cpu else 0.0
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
    if any(thread.is_alive() for thread in threads) or len(out) != len(streams):
        raise ChildError("a load thread did not finish")
    phase = Phase(start=min(start for start, _, _ in out))
    if cpu is not None:
        phase.cpu_s = cpu.read() - cpu_start
    phase.elapsed = max(end for _, end, _ in out) - phase.start
    for _, _, samples in out:
        phase.samples.extend(samples)
    phase.samples.sort(key=lambda sample: sample.done)
    return phase


def replay(port: int, requests) -> List[str]:
    """Send ``requests`` in order on one connection; the reasons of the
    incorrect responses."""
    errors = []
    sock = wire.connect(port)
    reader = wire.ResponseReader(sock)
    try:
        for request in requests:
            status, body, closing = exchange(sock, reader, request)
            reason = oracle.check(request.verdict, status, body)
            if reason is not None:
                errors.append(reason)
            if closing:
                sock.close()
                sock = wire.connect(port)
                reader = wire.ResponseReader(sock)
    finally:
        sock.close()
    return errors


def probe(port: int, request) -> Optional[str]:
    """One request on a fresh connection; ``None`` when correct."""
    sock = wire.connect(port)
    try:
        status, body, _ = exchange(sock, wire.ResponseReader(sock), request)
    finally:
        sock.close()
    return oracle.check(request.verdict, status, body)
