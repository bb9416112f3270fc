"""The chaos filesystem: seeded faults under the storage layer.

:class:`FaultyFS` wraps any :class:`repro.storage.vfs.LocalFS` and makes
it misbehave in the shapes real filesystems do:

* **torn writes** — a write persists only its first *k* bytes and the
  "process" dies (:class:`~repro.faults.crashpoints.SimulatedCrash`), so
  genuinely truncated files flow through the real commit path;
* **short reads** — ``read(n)`` returns fewer bytes than asked, checking
  that readers loop to EOF instead of trusting one syscall;
* **transient errors** — ``EIO`` / ``ENOSPC`` raised with a seeded
  probability (or a fixed budget of failures) on chosen operations,
  checking that every I/O failure surfaces as a typed
  :class:`~repro.util.errors.StorageError` and never as a torn file.

Determinism is the point: all randomness comes from one seeded
``np.random.Generator``, so a failing chaos test replays exactly.
Install with ``repro.storage.fs_scope(FaultyFS(...))``.
"""

from __future__ import annotations

import errno
from typing import IO, Optional

import numpy as np

from repro.faults.crashpoints import SimulatedCrash
from repro.storage.vfs import LocalFS

__all__ = ["FaultyFS"]


class _FaultyFile:
    """A file proxy that can tear writes and shorten reads."""

    def __init__(self, inner: IO, fs: "FaultyFS", writable: bool):
        self._inner = inner
        self._fs = fs
        self._writable = writable

    def write(self, data) -> int:
        fs = self._fs
        fs.maybe_error("write")
        if fs.torn_write_at is not None and data:
            k = min(fs.torn_write_at, len(data))
            fs.torn_write_at = None
            self._inner.write(data[:k])
            self._inner.flush()
            raise SimulatedCrash(f"torn-write after {k} bytes")
        return self._inner.write(data)

    def read(self, n: int = -1):
        fs = self._fs
        fs.maybe_error("read")
        if n is not None and n > 1 and fs.should_shorten_read():
            n = int(fs.rng.integers(1, n))
        return self._inner.read(n)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __enter__(self) -> "_FaultyFile":
        self._inner.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        return self._inner.__exit__(*exc)

    def __iter__(self):
        return iter(self._inner)


class FaultyFS(LocalFS):
    """A :class:`LocalFS` with seeded, injectable misbehaviour.

    Parameters
    ----------
    seed:
        Seeds the one RNG behind every probabilistic decision.
    error_rate:
        Probability that a faultable operation raises ``OSError``.
    error_budget:
        With ``None``, errors keep firing forever (hard outage).  With an
        int, at most that many errors fire in total (a transient fault).
    error_ops:
        Operation names eligible for injected errors (any of ``write``,
        ``read``, ``replace``, ``fsync``, ``open``).
    errnos:
        The errno pool injected errors draw from.
    short_read_rate:
        Probability that one ``read(n)`` returns fewer than ``n`` bytes.
    torn_write_at:
        Arm a one-shot torn write: the next write persists exactly this
        many bytes (capped at the data length) then simulates a crash.
    """

    def __init__(
        self,
        base: Optional[LocalFS] = None,
        seed: int = 0,
        error_rate: float = 0.0,
        error_budget: Optional[int] = None,
        error_ops: tuple = ("write", "replace", "fsync"),
        errnos: tuple = (errno.EIO, errno.ENOSPC),
        short_read_rate: float = 0.0,
        torn_write_at: Optional[int] = None,
    ):
        self.base = base if base is not None else LocalFS()
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.error_rate = error_rate
        self.error_budget = error_budget
        self.error_ops = tuple(error_ops)
        self.errnos = tuple(errnos)
        self.short_read_rate = short_read_rate
        self.torn_write_at = torn_write_at
        self.errors_injected = 0
        self.short_reads_injected = 0

    # -- fault decisions -----------------------------------------------------
    def maybe_error(self, op: str) -> None:
        if op not in self.error_ops or self.error_rate <= 0.0:
            return
        if self.error_budget is not None and self.errors_injected >= self.error_budget:
            return
        if self.rng.random() < self.error_rate:
            self.errors_injected += 1
            code = self.errnos[int(self.rng.integers(0, len(self.errnos)))]
            # A chaos filesystem must raise what a real syscall would: the
            # storage layer's OSError→StorageError mapping is under test.
            raise OSError(  # repro-lint: disable=typed-errors
                code, f"injected {errno.errorcode.get(code, code)} on {op}"
            )

    def should_shorten_read(self) -> bool:
        if self.short_read_rate <= 0.0:
            return False
        if self.rng.random() < self.short_read_rate:
            self.short_reads_injected += 1
            return True
        return False

    # -- LocalFS surface -----------------------------------------------------
    def open(self, path: str, mode: str = "r", **kwargs) -> IO:
        self.maybe_error("open")
        inner = self.base.open(path, mode, **kwargs)
        return _FaultyFile(inner, self, writable=any(c in mode for c in "wax+"))

    def fsync(self, fileobj: IO) -> None:
        self.maybe_error("fsync")
        inner = fileobj._inner if isinstance(fileobj, _FaultyFile) else fileobj
        self.base.fsync(inner)

    def fsync_dir(self, path: str) -> None:
        self.base.fsync_dir(path)

    def replace(self, src: str, dst: str) -> None:
        self.maybe_error("replace")
        self.base.replace(src, dst)

    def remove(self, path: str) -> None:
        self.base.remove(path)

    def exists(self, path: str) -> bool:
        return self.base.exists(path)

    def makedirs(self, path: str) -> None:
        self.base.makedirs(path)

    def listdir(self, path: str):
        return self.base.listdir(path)

    def size(self, path: str) -> int:
        return self.base.size(path)
