"""Host-speed probe: a reference for the CPU speed the workers ran at.

The shared host this benchmark runs on changes speed by up to 1.7x from
second to second and stays slow or fast for minutes, and a worker's CPU
time changes as much as its wall time, so neither is steady on its own.
The probe is a fixed pure-Python loop, pinned to the same CPU as the
workers at the lowest priority (nice 19), so that it runs in the gaps
between their time slices, about 1.5% of the CPU, and meets the same
speed at the same moments.  It publishes how many loop units it has run
and its own CPU time in a 16-byte file; the units per CPU-second over a
window is the CPU's speed during that window.  A time measured in that
window, multiplied by ``speed / REF_RATE``, is the time it would take on
a CPU that runs the probe at :data:`REF_RATE` units per second.

Run as a script, it is the probe process::

    python3 perfbench/speed.py COUNTER_FILE
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import subprocess
import sys
import time
from typing import Tuple

#: Probe units per CPU-second of the reference CPU (about this host's
#: median speed when the benchmark was written).
REF_RATE = 60000.0
_LAYOUT = struct.Struct("<dd")


def _unit() -> int:
    counts: dict = {}
    total = 0
    for i in range(40):
        key = str(i)
        counts[key] = counts.get(key, 0) + i
        total += len(key)
    return total


def _probe(path: str) -> None:
    os.nice(19)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(path, "r+b") as fh:
        shared = mmap.mmap(fh.fileno(), _LAYOUT.size)
    n = 0
    while True:
        _unit()
        n += 1
        _LAYOUT.pack_into(shared, 0, float(n), time.process_time())


def read(path: str) -> Tuple[float, float]:
    """(units run, probe CPU seconds) so far."""
    with open(path, "rb") as fh:
        return _LAYOUT.unpack(fh.read(_LAYOUT.size))


def speed(before: Tuple[float, float], after: Tuple[float, float]) -> float:
    """The CPU's speed between two readings, relative to :data:`REF_RATE`."""
    units, cpu = after[0] - before[0], after[1] - before[1]
    if units <= 0 or cpu <= 0:
        raise RuntimeError("the speed probe did not run during a measured window")
    return units / cpu / REF_RATE


def pin(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})


class Probe:
    """The probe process, pinned to ``cpu``; stopped by :meth:`stop`."""

    def __init__(self, path: str, cpu: int):
        self.path, self.cpu = path, cpu
        with open(path, "wb") as fh:
            fh.write(_LAYOUT.pack(0.0, 0.0))
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), path],
            stdin=subprocess.DEVNULL, preexec_fn=lambda: pin(cpu),
        )
        deadline = time.monotonic() + 10.0
        while read(path)[0] < 100:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("the speed probe did not start")
            time.sleep(0.01)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


if __name__ == "__main__":
    _probe(sys.argv[1])
