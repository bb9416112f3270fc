"""Open-loop reader for the ``serve`` workload.

One process, one keep-alive HTTP connection, a fixed endpoint mix sent on
a fixed schedule: read *k* is due at ``start + k / rate`` whether or not
the service kept up.  Latency is timed from the due time, so a stall also
counts against the reads queued behind it.  Because one connection sends
one read at a time, a read can only start after the previous one ended;
the generator's own lateness is the delay past ``max(due, previous end)``,
which is what the run's validity bound checks.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

#: The fixed endpoint mix, cycled in order.
ENDPOINTS = (
    "/healthz",
    "/alerts",
    "/oblasts",
    "/national",
    "/oblast/Kiev%20City",
    "/metrics",
)

READ_TIMEOUT_S = 5.0


@dataclass
class Reads:
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    healthz_days: List[str] = field(default_factory=list)

    def fail(self, path: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{path}: {why}")


def _read(conn: http.client.HTTPConnection, path: str) -> "tuple[int, bytes]":
    conn.request("GET", path)
    resp = conn.getresponse()
    return resp.status, resp.read()


def read_open_loop(
    host: str,
    port: int,
    rate: float,
    stop: Callable[[], bool],
    clock: Callable[[], float] = time.perf_counter,
) -> Reads:
    """Send reads at ``rate`` per second until ``stop()`` is true."""
    reads = Reads()
    conn: Optional[http.client.HTTPConnection] = None
    start = clock()
    prev_end = start
    k = 0
    try:
        while not stop():
            due = start + k / rate
            now = clock()
            if now < due:
                time.sleep(due - now)
            sent = clock()
            reads.late_ms.append((sent - max(due, prev_end)) * 1000.0)
            path = ENDPOINTS[k % len(ENDPOINTS)]
            k += 1
            reads.attempted += 1
            try:
                if conn is None:
                    conn = http.client.HTTPConnection(host, port, timeout=READ_TIMEOUT_S)
                status, body = _read(conn, path)
                doc = json.loads(body) if status == 200 else None
            except (OSError, http.client.HTTPException, ValueError) as exc:
                reads.fail(path, f"{type(exc).__name__}: {exc}")
                if conn is not None:
                    conn.close()
                conn = None
                doc = None
            else:
                if status != 200:
                    reads.fail(path, f"status {status}")
            prev_end = clock()
            reads.latencies_ms.append((prev_end - due) * 1000.0)
            if path == "/healthz" and isinstance(doc, dict) and doc.get("day"):
                reads.healthz_days.append(doc["day"])
    finally:
        if conn is not None:
            conn.close()
    return reads
