"""The HTTP load generator and the server process it drives.

One process, one thread, at most two keep-alive connections: an asyncio
client that replays pre-encoded ``POST /link`` bodies either on a fixed
schedule (open loop: each request is timed from when it was due, and the
generator's own lateness is recorded as lag) or back to back on every
connection (closed loop).
"""

from __future__ import annotations

import asyncio
import json
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

import common

CONNECTIONS = 2
REQUEST_TIMEOUT_S = 10.0


@dataclass
class Outcome:
    index: int  # position in the phase's request list
    status: int  # HTTP status; 0 for a timeout or a broken connection
    body: bytes
    latency_s: float  # from due time (open loop) or send time (closed)
    service_s: float  # from send time


@dataclass
class PhaseResult:
    outcomes: List[Outcome] = field(default_factory=list)
    lags_ms: List[float] = field(default_factory=list)
    start: float = 0.0  # time.monotonic() when the phase began
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status != 200)

    def latencies_ms(self) -> List[float]:
        """Per-request latency; a failed request counts as missing any
        limit, so it enters as infinity."""
        return [
            o.latency_s * 1000.0 if o.status == 200 else float("inf")
            for o in self.outcomes
        ]


class _Connection:
    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def post(self, body: bytes):
        if self.writer is None:
            await self.open()
        head = (
            f"POST /link HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        raw = await self.reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None


async def _send(conn: _Connection, body: bytes):
    try:
        return await asyncio.wait_for(conn.post(body), REQUEST_TIMEOUT_S)
    except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError, ValueError):
        conn.close()  # the framing is lost; reconnect for the next request
        return 0, b""


async def _open_loop(host, port, bodies: Sequence[bytes], rate: float) -> PhaseResult:
    loop = asyncio.get_running_loop()
    result = PhaseResult()
    queue: asyncio.Queue = asyncio.Queue()
    conns = [_Connection(host, port) for _ in range(CONNECTIONS)]
    for conn in conns:
        await conn.open()
    start = result.start = loop.time() + 0.01

    async def generate():
        for i in range(len(bodies)):
            due = start + i / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lags_ms.append(max(0.0, loop.time() - due) * 1000.0)
            queue.put_nowait((i, due))
        for _ in conns:
            queue.put_nowait(None)

    async def work(conn):
        while (item := await queue.get()) is not None:
            i, due = item
            sent = loop.time()
            status, body = await _send(conn, bodies[i])
            done = loop.time()
            result.outcomes.append(Outcome(i, status, body, done - due, done - sent))

    await asyncio.gather(generate(), *(work(c) for c in conns))
    result.wall_s = loop.time() - start
    for conn in conns:
        conn.close()
    return result


async def _closed_loop(host, port, bodies: Sequence[bytes], seconds: float,
                       limit: Optional[int]) -> PhaseResult:
    loop = asyncio.get_running_loop()
    result = PhaseResult()
    conns = [_Connection(host, port) for _ in range(CONNECTIONS)]
    for conn in conns:
        await conn.open()
    start = result.start = loop.time()
    end = start + seconds
    cursor = iter(range(limit if limit is not None else 10**9))

    async def work(conn):
        while loop.time() < end:
            i = next(cursor, None)
            if i is None:
                break
            sent = loop.time()
            status, body = await _send(conn, bodies[i % len(bodies)])
            done = loop.time()
            result.outcomes.append(Outcome(i, status, body, done - sent, done - sent))

    await asyncio.gather(*(work(c) for c in conns))
    result.wall_s = loop.time() - start
    for conn in conns:
        conn.close()
    return result


def open_loop(port: int, bodies: Sequence[bytes], rate: float) -> PhaseResult:
    return asyncio.run(_open_loop("127.0.0.1", port, bodies, rate))


def closed_loop(port: int, bodies: Sequence[bytes], seconds: float = float("inf"),
                limit: Optional[int] = None) -> PhaseResult:
    """Both connections send back to back until ``seconds`` pass or
    ``limit`` requests were sent (cycling through ``bodies``)."""
    if limit is None and seconds == float("inf"):
        raise ValueError("a closed loop needs a time or request limit")
    return asyncio.run(_closed_loop("127.0.0.1", port, bodies, seconds, limit))


def request_body(snippet_dicts: Sequence[dict]) -> bytes:
    return json.dumps({
        "schema_version": 2,
        "items": [{"snippet": s} for s in snippet_dicts],
    }).encode()


def get_json(port: int, path: str) -> dict:
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        payload = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}")
        return json.loads(payload)
    finally:
        conn.close()


class Server:
    """``repro serve --http`` in its own process; output captured to
    files beside the cache so a failed start or shutdown can be shown."""

    def __init__(self, argv: Sequence[str], log_dir: Path, tag: str):
        self.stdout_path = log_dir / f"server-{tag}.out"
        self.stderr_path = log_dir / f"server-{tag}.err"
        self._stdout = open(self.stdout_path, "w")
        self._stderr = open(self.stderr_path, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=str(common.ROOT), env=common.child_env(),
            stdout=self._stdout, stderr=self._stderr,
        )
        self.port: Optional[int] = None

    def wait_healthy(self, timeout: float = 120.0) -> float:
        """Seconds from spawn until ``/healthz`` first answers 200."""
        limit = self.started + timeout
        while self.port is None:
            self._check_alive(limit)
            for line in self.stdout_path.read_text().splitlines():
                if line.startswith("serving on http://"):
                    self.port = int(line.rsplit(":", 1)[1])
            if self.port is None:
                time.sleep(0.005)
        while True:
            self._check_alive(limit)
            try:
                if get_json(self.port, "/healthz").get("status") == "ok":
                    break
            except (OSError, RuntimeError, ValueError):
                time.sleep(0.005)
        return time.perf_counter() - self.started

    def _check_alive(self, limit: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"server exited with {self.proc.returncode} before serving:\n"
                f"{self.stderr_path.read_text()[-2000:]}"
            )
        if time.perf_counter() > limit:
            raise RuntimeError("server did not become healthy in time")

    def stop(self) -> bool:
        """SIGINT, then wait; True when the shutdown was clean (exit 0,
        no traceback on stderr)."""
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                clean = False
        self._stdout.close()
        self._stderr.close()
        if self.proc.returncode != 0 or "Traceback" in self.stderr_path.read_text():
            clean = False
        return clean

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._stdout.close()
        self._stderr.close()
